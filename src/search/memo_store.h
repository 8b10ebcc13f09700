#ifndef HPCMIXP_SEARCH_MEMO_STORE_H_
#define HPCMIXP_SEARCH_MEMO_STORE_H_

/**
 * @file
 * Persistent, content-addressed evaluation memo-cache.
 *
 * SearchContext's cache lives and dies with one process; the memo
 * store is its durable, shareable counterpart (DESIGN.md, Section 12).
 * Evaluations are addressed in two steps:
 *
 *  - a MemoFingerprint names the *evaluation function*: benchmark,
 *    input signature, quality metric and threshold, site count and
 *    precision ladder. Two runs with the same fingerprint would
 *    measure identical quality outcomes for identical configurations,
 *    so their evaluations are interchangeable. Any fingerprint change
 *    addresses a different table — stale results are invalidated by
 *    construction, never consulted.
 *  - within a table, entries are keyed by the cluster-config bitmask
 *    (Config::toString()).
 *
 * A MemoTable is backed by one append-only AppendLog segment whose
 * header is the fingerprint description; crash recovery and
 * header-change invalidation come from the log. The in-memory index is
 * sharded (key-hash → shard mutex), so concurrent evaluateBatch
 * workers and racing portfolio strategies never contend on a global
 * lock for lookups.
 *
 * Only evaluations that actually *ran* (pass / quality_fail /
 * runtime_fail) are published: compile failures cost no execution to
 * re-derive and depend on prior mode, so memoizing them could poison
 * runs with different prior settings.
 */

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "search/problem.h"
#include "support/memo_log.h"

namespace hpcmixp::search {

/** Canonical name of an EvalStatus ("pass", "quality_fail", ...). */
const char* evalStatusName(EvalStatus status);

/** Inverse of evalStatusName(); nullopt for unknown names. */
std::optional<EvalStatus> evalStatusFromName(const std::string& name);

/** Identity of an evaluation function; equal fingerprints make
 *  evaluations interchangeable across runs, users and strategies. */
struct MemoFingerprint {
    std::string benchmark;            ///< registry name
    std::uint64_t inputSignature = 0; ///< xxh64 of the reference output
    std::string metric;               ///< quality metric name
    double threshold = 0.0;           ///< quality threshold
    std::size_t sites = 0;            ///< config bitmask width
    std::string ladder = "f64:f32";   ///< precision ladder

    /** A default-constructed fingerprint means "none". */
    bool valid() const { return !benchmark.empty(); }

    /** Canonical one-line description (the segment header). */
    std::string describe() const;

    /** Content address: hash of describe(). */
    std::uint64_t hash() const;

    bool operator==(const MemoFingerprint& other) const = default;
};

/**
 * One fingerprint's evaluation table: sharded in-memory index over an
 * append-only on-disk segment. Thread-safe; shareable across contexts.
 */
class MemoTable {
  public:
    /** Open (or create) the segment at @p path for @p fingerprint. */
    MemoTable(const std::string& path,
              const MemoFingerprint& fingerprint);

    MemoTable(const MemoTable&) = delete;
    MemoTable& operator=(const MemoTable&) = delete;

    const MemoFingerprint& fingerprint() const { return fingerprint_; }

    /** The memoized evaluation of @p key, if any. */
    std::optional<Evaluation> lookup(const std::string& key) const;

    /**
     * Publish one evaluation. Only results that ran are durable (see
     * file comment); first publisher wins, repeats are no-ops. Returns
     * true when the entry was newly recorded.
     */
    bool publish(const std::string& key, const Evaluation& eval);

    /** Number of memoized evaluations. */
    std::size_t size() const;

    /** Snapshot of every memoized (key, evaluation) pair, in
     *  unspecified order. */
    std::vector<std::pair<std::string, Evaluation>> entries() const;

    /** Bytes of partial record dropped by crash recovery at open. */
    std::size_t truncatedBytes() const { return truncatedBytes_; }

    /** True when a stale segment (fingerprint change) was discarded. */
    bool invalidated() const { return invalidated_; }

  private:
    static constexpr std::size_t kShards = 16;

    struct Shard {
        mutable std::mutex mutex;
        std::unordered_map<std::string, Evaluation> map;
    };

    Shard& shardFor(const std::string& key);
    const Shard& shardFor(const std::string& key) const;

    MemoFingerprint fingerprint_;
    std::array<Shard, kShards> shards_;
    std::mutex appendMutex_; ///< serializes segment appends
    support::AppendLog log_;
    std::size_t truncatedBytes_ = 0;
    bool invalidated_ = false;
};

/**
 * A directory of memo tables, one segment file per fingerprint.
 * Handing out shared_ptr tables means six racing portfolio strategies
 * (or six harness jobs tuning the same benchmark) hit one table
 * instance and one segment file.
 */
class MemoStore {
  public:
    /** Open (creating if needed) the store directory at @p dir. */
    explicit MemoStore(std::string dir);

    MemoStore(const MemoStore&) = delete;
    MemoStore& operator=(const MemoStore&) = delete;

    /** The table for @p fingerprint, opened on first use. */
    std::shared_ptr<MemoTable> table(const MemoFingerprint& fp);

    const std::string& directory() const { return dir_; }

  private:
    std::string dir_;
    std::mutex mutex_;
    std::unordered_map<std::uint64_t, std::shared_ptr<MemoTable>>
        tables_;
};

} // namespace hpcmixp::search

#endif // HPCMIXP_SEARCH_MEMO_STORE_H_
