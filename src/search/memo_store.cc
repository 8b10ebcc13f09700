#include "search/memo_store.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "support/logging.h"
#include "support/string_util.h"

namespace hpcmixp::search {

using support::strCat;

const char*
evalStatusName(EvalStatus status)
{
    switch (status) {
      case EvalStatus::Pass:
        return "pass";
      case EvalStatus::QualityFail:
        return "quality_fail";
      case EvalStatus::CompileFail:
        return "compile_fail";
      case EvalStatus::RuntimeFail:
        return "runtime_fail";
    }
    return "unknown";
}

std::optional<EvalStatus>
evalStatusFromName(const std::string& name)
{
    if (name == "pass")
        return EvalStatus::Pass;
    if (name == "quality_fail")
        return EvalStatus::QualityFail;
    if (name == "compile_fail")
        return EvalStatus::CompileFail;
    if (name == "runtime_fail")
        return EvalStatus::RuntimeFail;
    return std::nullopt;
}

namespace {

/** Hexfloat rendering: round-trip exact, including nan/inf. */
std::string
doubleField(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** One segment record: "<key> <status> <runtime> <speedup> <loss>". */
std::string
recordOf(const std::string& key, const Evaluation& eval)
{
    return strCat(key, ' ', evalStatusName(eval.status), ' ',
                  doubleField(eval.runtimeSeconds), ' ',
                  doubleField(eval.speedup), ' ',
                  doubleField(eval.qualityLoss));
}

/** Split @p record on single spaces into exactly @p n fields. */
bool
splitFields(const std::string& record, std::string* fields,
            std::size_t n)
{
    std::size_t pos = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t end = i + 1 == n ? record.size()
                                     : record.find(' ', pos);
        if (end == std::string::npos)
            return false;
        fields[i] = record.substr(pos, end - pos);
        if (fields[i].empty() ||
            fields[i].find(' ') != std::string::npos)
            return false;
        pos = end + 1;
    }
    return true;
}

bool
parseDoubleField(const std::string& text, double& out)
{
    const char* begin = text.c_str();
    char* end = nullptr;
    out = std::strtod(begin, &end);
    return end == begin + text.size();
}

} // namespace

std::string
MemoFingerprint::describe() const
{
    return strCat("mixpmemo v1 benchmark=", benchmark,
                  " input=", inputSignature, " metric=", metric,
                  " threshold=", doubleField(threshold),
                  " sites=", sites, " ladder=", ladder);
}

std::uint64_t
MemoFingerprint::hash() const
{
    return support::fnv1a64(describe());
}

MemoTable::MemoTable(const std::string& path,
                     const MemoFingerprint& fingerprint)
    : fingerprint_(fingerprint), log_(path, fingerprint.describe())
{
    truncatedBytes_ = log_.truncatedBytes();
    invalidated_ = log_.reset();
    if (truncatedBytes_ > 0)
        support::warn(strCat("memo store: dropped ", truncatedBytes_,
                             " bytes of partial record from '", path,
                             "'"));

    // Index the recovered records. A record that fails to parse is a
    // corrupted middle entry (not the crash tail, which the log already
    // truncated); skipping it loses one memoized evaluation, nothing
    // else.
    std::size_t malformed = 0;
    for (const std::string& record : log_.takeRecords()) {
        std::string fields[5];
        Evaluation eval;
        std::optional<EvalStatus> status;
        if (!splitFields(record, fields, 5) ||
            fields[0].size() != fingerprint_.sites ||
            !(status = evalStatusFromName(fields[1])) ||
            !parseDoubleField(fields[2], eval.runtimeSeconds) ||
            !parseDoubleField(fields[3], eval.speedup) ||
            !parseDoubleField(fields[4], eval.qualityLoss)) {
            ++malformed;
            continue;
        }
        eval.status = *status;
        shardFor(fields[0]).map.emplace(std::move(fields[0]),
                                        std::move(eval));
    }
    if (malformed > 0)
        support::warn(strCat("memo store: skipped ", malformed,
                             " malformed records in '", path, "'"));
}

MemoTable::Shard&
MemoTable::shardFor(const std::string& key)
{
    return shards_[support::fnv1a64(key) % kShards];
}

const MemoTable::Shard&
MemoTable::shardFor(const std::string& key) const
{
    return shards_[support::fnv1a64(key) % kShards];
}

std::optional<Evaluation>
MemoTable::lookup(const std::string& key) const
{
    const Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end())
        return std::nullopt;
    return it->second;
}

bool
MemoTable::publish(const std::string& key, const Evaluation& eval)
{
    if (!eval.ran())
        return false; // compile failures are never memoized
    {
        Shard& shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (!shard.map.emplace(key, eval).second)
            return false; // first publisher wins
    }
    std::lock_guard<std::mutex> lock(appendMutex_);
    log_.append(recordOf(key, eval));
    return true;
}

std::size_t
MemoTable::size() const
{
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.map.size();
    }
    return total;
}

std::vector<std::pair<std::string, Evaluation>>
MemoTable::entries() const
{
    std::vector<std::pair<std::string, Evaluation>> all;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        all.insert(all.end(), shard.map.begin(), shard.map.end());
    }
    return all;
}

MemoStore::MemoStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        support::fatal(strCat("memo store: cannot create directory '",
                              dir_, "': ", ec.message()));
}

std::shared_ptr<MemoTable>
MemoStore::table(const MemoFingerprint& fp)
{
    HPCMIXP_ASSERT(fp.valid(), "memo store: invalid fingerprint");
    std::uint64_t hash = fp.hash();
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tables_.find(hash);
    if (it != tables_.end())
        return it->second;
    char name[32];
    std::snprintf(name, sizeof(name), "memo-%016llx.log",
                  static_cast<unsigned long long>(hash));
    auto table = std::make_shared<MemoTable>(
        (std::filesystem::path(dir_) / name).string(), fp);
    tables_.emplace(hash, table);
    return table;
}

} // namespace hpcmixp::search
