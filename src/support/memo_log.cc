#include "support/memo_log.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "support/logging.h"

namespace hpcmixp::support {

std::uint64_t
fnv1a64(const void* data, std::size_t size)
{
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
fnv1a64(const std::string& text)
{
    return fnv1a64(text.data(), text.size());
}

namespace {

constexpr std::uint64_t kP1 = 11400714785074694791ull;
constexpr std::uint64_t kP2 = 14029467366897019727ull;
constexpr std::uint64_t kP3 = 1609587929392839161ull;
constexpr std::uint64_t kP4 = 9650029242287828579ull;
constexpr std::uint64_t kP5 = 2870177450012600261ull;

// xxh64() reads words in host byte order; its persisted values are
// those of XXH64's little-endian word reads.
static_assert(std::endian::native == std::endian::little,
              "xxh64 assumes a little-endian host");

template <class Word>
Word
readWord(const unsigned char* p)
{
    Word w;
    std::memcpy(&w, p, sizeof w);
    return w;
}

std::uint64_t
xxhRound(std::uint64_t acc, std::uint64_t word)
{
    return std::rotl(acc + word * kP2, 31) * kP1;
}

std::uint64_t
xxhMerge(std::uint64_t h, std::uint64_t lane)
{
    return (h ^ xxhRound(0, lane)) * kP1 + kP4;
}

} // namespace

std::uint64_t
xxh64(const void* data, std::size_t size)
{
    const auto* p = static_cast<const unsigned char*>(data);
    const unsigned char* const end = p + size;
    std::uint64_t h = kP5;
    if (size >= 32) {
        std::uint64_t v1 = kP1 + kP2;
        std::uint64_t v2 = kP2;
        std::uint64_t v3 = 0;
        std::uint64_t v4 = 0 - kP1;
        for (; end - p >= 32; p += 32) {
            v1 = xxhRound(v1, readWord<std::uint64_t>(p));
            v2 = xxhRound(v2, readWord<std::uint64_t>(p + 8));
            v3 = xxhRound(v3, readWord<std::uint64_t>(p + 16));
            v4 = xxhRound(v4, readWord<std::uint64_t>(p + 24));
        }
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = xxhMerge(xxhMerge(xxhMerge(xxhMerge(h, v1), v2), v3), v4);
    }
    h += size;
    for (; end - p >= 8; p += 8) {
        h ^= xxhRound(0, readWord<std::uint64_t>(p));
        h = std::rotl(h, 27) * kP1 + kP4;
    }
    if (end - p >= 4) {
        h ^= readWord<std::uint32_t>(p) * kP1;
        h = std::rotl(h, 23) * kP2 + kP3;
        p += 4;
    }
    for (; p < end; ++p) {
        h ^= *p * kP5;
        h = std::rotl(h, 11) * kP1;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
}

namespace {

/** Checksum rendered exactly as it appears on a record line. */
std::string
checksumOf(const std::string& record)
{
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08x",
                  static_cast<unsigned>(fnv1a64(record) & 0xffffffffu));
    return buf;
}

} // namespace

AppendLog::AppendLog(std::string path, std::string header)
    : path_(std::move(path))
{
    load(header);
    // Reopen for appending only after recovery has truncated the tail;
    // opening in app mode first would write past the partial record.
    out_.open(path_, std::ios::app);
    if (!out_)
        fatal(strCat("memo log: cannot open '", path_,
                     "' for appending"));
    if (out_.tellp() == std::ofstream::pos_type(0)) {
        out_ << header << '\n';
        out_.flush();
    }
}

void
AppendLog::load(const std::string& header)
{
    std::ifstream in(path_, std::ios::binary);
    if (!in)
        return; // fresh log; the constructor writes the header
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    if (text.empty())
        return; // fresh log; the constructor writes the header

    // Header line: present, terminated and matching, or the whole file
    // is stale (the fingerprint behind this log changed).
    std::size_t eol = text.find('\n');
    if (eol == std::string::npos ||
        text.compare(0, eol, header) != 0) {
        reset_ = true;
        std::ofstream wipe(path_, std::ios::trunc);
        return;
    }

    // Records: keep the longest prefix of durable lines. The first
    // malformed or unterminated line and everything after it is the
    // partial tail a crash mid-append leaves behind.
    std::size_t durable = eol + 1;
    std::size_t pos = durable;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            break; // unterminated tail
        // "<8 hex> <record>"
        if (end - pos < 10 || text[pos + 8] != ' ')
            break;
        std::string record = text.substr(pos + 9, end - pos - 9);
        if (text.compare(pos, 8, checksumOf(record)) != 0)
            break;
        records_.push_back(std::move(record));
        pos = end + 1;
        durable = pos;
    }
    if (durable < text.size()) {
        truncatedBytes_ = text.size() - durable;
        std::filesystem::resize_file(path_, durable);
    }
}

void
AppendLog::append(const std::string& record)
{
    HPCMIXP_ASSERT(record.find('\n') == std::string::npos,
                   "memo log records must be newline-free");
    out_ << checksumOf(record) << ' ' << record << '\n';
    out_.flush();
}

} // namespace hpcmixp::support
