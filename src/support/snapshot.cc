#include "support/snapshot.hh"

#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "support/iofault.hh"
#include "support/logging.hh"

namespace vax::snap
{

namespace
{

constexpr char magic[8] = {'U', 'P', 'C', '7', '8', '0', 'C', 'K'};
constexpr uint32_t trailerSentinel = 0xFFFFFFFFu;
/** Refuse absurd name/blob lengths before allocating (a corrupt
 *  length field must not become a multi-gigabyte allocation). */
constexpr uint64_t maxNameLen = 4096;

/** Formatted SnapshotError carrying the detecting file:line. */
[[noreturn]] void
failAt(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] void
failAt(const char *file, int line, const char *fmt, ...)
{
    char msg[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(msg, sizeof(msg), fmt, ap);
    va_end(ap);
    char full[640];
    std::snprintf(full, sizeof(full), "snapshot: %s [%s:%d]", msg,
                  file, line);
    throw SnapshotError(full);
}

#define SNAP_FAIL(...) failAt(__FILE__, __LINE__, __VA_ARGS__)

} // anonymous namespace

uint32_t
crc32(const void *data, size_t len)
{
    static uint32_t table[256];
    static bool built = false;
    if (!built) {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            table[i] = c;
        }
        built = true;
    }
    uint32_t c = 0xFFFFFFFFu;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ====================== Serializer ======================

Serializer::Serializer()
{
    raw(magic, sizeof(magic));
    uint8_t v[4] = {
        static_cast<uint8_t>(formatVersion),
        static_cast<uint8_t>(formatVersion >> 8),
        static_cast<uint8_t>(formatVersion >> 16),
        static_cast<uint8_t>(formatVersion >> 24),
    };
    raw(v, 4);
}

void
Serializer::raw(const void *data, size_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + len);
}

void
Serializer::beginSection(const std::string &name)
{
    upc_assert(!inSection_ && !finished_);
    uint32_t n = static_cast<uint32_t>(name.size());
    uint8_t hdr[4] = {
        static_cast<uint8_t>(n), static_cast<uint8_t>(n >> 8),
        static_cast<uint8_t>(n >> 16), static_cast<uint8_t>(n >> 24),
    };
    raw(hdr, 4);
    raw(name.data(), name.size());
    // Payload length placeholder, patched by endSection().
    uint8_t zero[8] = {};
    raw(zero, 8);
    sectionStart_ = buf_.size();
    inSection_ = true;
    ++sectionCount_;
}

void
Serializer::endSection()
{
    upc_assert(inSection_);
    uint64_t len = buf_.size() - sectionStart_;
    for (int i = 0; i < 8; ++i)
        buf_[sectionStart_ - 8 + i] =
            static_cast<uint8_t>(len >> (8 * i));
    uint32_t crc = crc32(buf_.data() + sectionStart_, len);
    uint8_t c[4] = {
        static_cast<uint8_t>(crc), static_cast<uint8_t>(crc >> 8),
        static_cast<uint8_t>(crc >> 16),
        static_cast<uint8_t>(crc >> 24),
    };
    inSection_ = false;
    raw(c, 4);
}

void
Serializer::putU8(uint8_t v)
{
    upc_assert(inSection_);
    raw(&v, 1);
}

void
Serializer::putU16(uint16_t v)
{
    uint8_t b[2] = {static_cast<uint8_t>(v),
                    static_cast<uint8_t>(v >> 8)};
    upc_assert(inSection_);
    raw(b, 2);
}

void
Serializer::putU32(uint32_t v)
{
    uint8_t b[4] = {
        static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8),
        static_cast<uint8_t>(v >> 16), static_cast<uint8_t>(v >> 24),
    };
    upc_assert(inSection_);
    raw(b, 4);
}

void
Serializer::putU64(uint64_t v)
{
    uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<uint8_t>(v >> (8 * i));
    upc_assert(inSection_);
    raw(b, 8);
}

void
Serializer::putDouble(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
Serializer::putString(const std::string &s)
{
    putU64(s.size());
    upc_assert(inSection_);
    raw(s.data(), s.size());
}

void
Serializer::putBytes(const void *data, size_t len)
{
    putU64(len);
    upc_assert(inSection_);
    raw(data, len);
}

void
Serializer::putBytesRle(const void *data, size_t len)
{
    // Pairs of (zero run, literal run) covering the image in order.
    putU64(len);
    const uint8_t *p = static_cast<const uint8_t *>(data);
    size_t i = 0;
    while (i < len) {
        size_t z = i;
        while (z < len && p[z] == 0)
            ++z;
        size_t l = z;
        // A literal run ends at a worthwhile zero gap (>= 16 bytes),
        // so short zero stretches don't fragment the encoding.
        while (l < len) {
            if (p[l] != 0) {
                ++l;
                continue;
            }
            size_t zz = l;
            while (zz < len && p[zz] == 0)
                ++zz;
            if (zz - l >= 16 || zz == len)
                break;
            l = zz;
        }
        putU64(z - i);                  // zero run
        putBytes(p + z, l - z);         // literal run
        i = l;
    }
}

void
Serializer::putVecU64(const std::vector<uint64_t> &v)
{
    // Encode through the RLE blob path: histogram banks are sparse.
    std::vector<uint8_t> bytes(v.size() * 8);
    for (size_t i = 0; i < v.size(); ++i)
        for (int k = 0; k < 8; ++k)
            bytes[i * 8 + k] = static_cast<uint8_t>(v[i] >> (8 * k));
    putU64(v.size());
    putBytesRle(bytes.data(), bytes.size());
}

std::vector<uint8_t>
Serializer::finish()
{
    upc_assert(!inSection_ && !finished_);
    uint8_t t[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    raw(t, 4);
    uint8_t n[8];
    for (int i = 0; i < 8; ++i)
        n[i] = static_cast<uint8_t>(sectionCount_ >> (8 * i));
    raw(n, 8);
    finished_ = true;
    return std::move(buf_);
}

bool
Serializer::writeFile(const std::string &path)
{
    // Durable atomic write (fsync file, rename, fsync dir) through
    // the host-I/O fault layer: a snapshot that "succeeded" must
    // survive power loss, and the chaos drills must be able to make
    // any stage of it fail.  On failure io::lastStatus() tells the
    // caller *how* (the campaign's ENOSPC degraded mode needs that).
    std::vector<uint8_t> image = finish();
    return static_cast<bool>(
        io::atomicWrite(path, image.data(), image.size()));
}

// ====================== Deserializer ======================

Deserializer::Deserializer(std::vector<uint8_t> data)
    : data_(std::move(data))
{
    if (data_.size() < sizeof(magic) + 4)
        SNAP_FAIL("image truncated at %zu bytes (no header)",
                  data_.size());
    if (std::memcmp(data_.data(), magic, sizeof(magic)) != 0)
        SNAP_FAIL("bad magic (not a upc780 snapshot)");
    pos_ = sizeof(magic);
    uint32_t ver = rawU32();
    if (ver != formatVersion)
        SNAP_FAIL("format version %u, this build reads only %u "
                  "(re-run the producing build or discard the file)",
                  ver, formatVersion);
}

Deserializer
Deserializer::fromFile(const std::string &path)
{
    // Size-validated whole-file read through the fault layer: an EIO
    // or short read surfaces as a SnapshotError, which every caller
    // already treats as "this file is damaged" (fail-soft for
    // .result ingestion, restart-from-seed for checkpoints).
    std::vector<uint8_t> bytes;
    io::Status st = io::readFile(path, &bytes);
    if (!st)
        SNAP_FAIL("cannot read '%s' (%s: %s)", path.c_str(), st.stage,
                  std::strerror(st.err));
    return Deserializer(std::move(bytes));
}

void
Deserializer::need(size_t n, const char *what)
{
    size_t limit = inSection_ ? sectionEnd_ : data_.size();
    if (pos_ + n > limit) {
        if (inSection_)
            SNAP_FAIL("section '%s': truncated reading %s at offset "
                      "%zu (%zu of %zu bytes left)",
                      sectionName_.c_str(), what, pos_,
                      limit - pos_, n);
        SNAP_FAIL("truncated reading %s at offset %zu", what, pos_);
    }
}

uint32_t
Deserializer::rawU32()
{
    need(4, "u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

uint64_t
Deserializer::rawU64()
{
    need(8, "u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

void
Deserializer::beginSection(const std::string &name)
{
    upc_assert(!inSection_);
    uint32_t nameLen = rawU32();
    if (nameLen == trailerSentinel)
        SNAP_FAIL("expected section '%s', found the trailer "
                  "(snapshot ends early)", name.c_str());
    if (nameLen > maxNameLen)
        SNAP_FAIL("section name length %u is implausible "
                  "(corrupt header at offset %zu)", nameLen, pos_ - 4);
    need(nameLen, "section name");
    std::string found(reinterpret_cast<const char *>(data_.data()) +
                          pos_,
                      nameLen);
    pos_ += nameLen;
    if (found != name)
        SNAP_FAIL("expected section '%s', found '%s' (layout skew "
                  "or corrupt stream)", name.c_str(), found.c_str());
    uint64_t payloadLen = rawU64();
    if (payloadLen > data_.size() - pos_)
        SNAP_FAIL("section '%s': payload length %llu exceeds the "
                  "remaining %zu bytes (truncated file)",
                  found.c_str(),
                  static_cast<unsigned long long>(payloadLen),
                  data_.size() - pos_);
    if (data_.size() - pos_ - payloadLen < 4)
        SNAP_FAIL("section '%s': missing CRC (truncated file)",
                  found.c_str());
    uint32_t want = 0;
    for (int i = 0; i < 4; ++i)
        want |= static_cast<uint32_t>(
                    data_[pos_ + payloadLen + i])
            << (8 * i);
    uint32_t got = crc32(data_.data() + pos_, payloadLen);
    if (got != want)
        SNAP_FAIL("section '%s': CRC mismatch (stored %08x, "
                  "computed %08x) -- file is corrupt",
                  found.c_str(), want, got);
    sectionName_ = found;
    sectionEnd_ = pos_ + payloadLen;
    inSection_ = true;
    ++sectionCount_;
}

void
Deserializer::endSection()
{
    upc_assert(inSection_);
    if (pos_ != sectionEnd_)
        SNAP_FAIL("section '%s': %zu unread payload bytes (layout "
                  "skew between writer and reader)",
                  sectionName_.c_str(), sectionEnd_ - pos_);
    inSection_ = false;
    sectionName_.clear();
    pos_ += 4; // the verified CRC
}

uint8_t
Deserializer::getU8()
{
    need(1, "u8");
    return data_[pos_++];
}

uint16_t
Deserializer::getU16()
{
    need(2, "u16");
    uint16_t v = static_cast<uint16_t>(
        data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
}

uint32_t
Deserializer::getU32()
{
    upc_assert(inSection_);
    return rawU32();
}

uint64_t
Deserializer::getU64()
{
    upc_assert(inSection_);
    return rawU64();
}

double
Deserializer::getDouble()
{
    uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Deserializer::getString()
{
    uint64_t len = getU64();
    need(len, "string body");
    std::string s(reinterpret_cast<const char *>(data_.data()) + pos_,
                  static_cast<size_t>(len));
    pos_ += len;
    return s;
}

void
Deserializer::getBytes(void *out, size_t len)
{
    uint64_t stored = getU64();
    if (stored != len)
        SNAP_FAIL("section '%s': blob is %llu bytes, expected %zu",
                  sectionName_.c_str(),
                  static_cast<unsigned long long>(stored), len);
    need(len, "blob body");
    std::memcpy(out, data_.data() + pos_, len);
    pos_ += len;
}

void
Deserializer::getBytesRle(void *out, size_t len)
{
    uint64_t total = getU64();
    if (total != len)
        SNAP_FAIL("section '%s': RLE blob decodes to %llu bytes, "
                  "expected %zu", sectionName_.c_str(),
                  static_cast<unsigned long long>(total), len);
    uint8_t *p = static_cast<uint8_t *>(out);
    size_t i = 0;
    while (i < len) {
        uint64_t zeros = getU64();
        if (zeros > len - i)
            SNAP_FAIL("section '%s': RLE zero run of %llu overflows "
                      "the %zu-byte image", sectionName_.c_str(),
                      static_cast<unsigned long long>(zeros), len);
        std::memset(p + i, 0, static_cast<size_t>(zeros));
        i += static_cast<size_t>(zeros);
        uint64_t lit = getU64();
        if (lit > len - i)
            SNAP_FAIL("section '%s': RLE literal run of %llu "
                      "overflows the %zu-byte image",
                      sectionName_.c_str(),
                      static_cast<unsigned long long>(lit), len);
        need(lit, "RLE literal run");
        std::memcpy(p + i, data_.data() + pos_,
                    static_cast<size_t>(lit));
        pos_ += lit;
        i += static_cast<size_t>(lit);
        if (zeros == 0 && lit == 0 && i < len)
            SNAP_FAIL("section '%s': empty RLE pair at offset %zu "
                      "(corrupt stream would loop forever)",
                      sectionName_.c_str(), pos_);
    }
}

void
Deserializer::getVecU64(std::vector<uint64_t> &v)
{
    uint64_t count = getU64();
    if (count != v.size())
        SNAP_FAIL("section '%s': vector holds %llu elements, this "
                  "machine's %zu", sectionName_.c_str(),
                  static_cast<unsigned long long>(count), v.size());
    std::vector<uint8_t> bytes(v.size() * 8);
    getBytesRle(bytes.data(), bytes.size());
    for (size_t i = 0; i < v.size(); ++i) {
        uint64_t x = 0;
        for (int k = 0; k < 8; ++k)
            x |= static_cast<uint64_t>(bytes[i * 8 + k]) << (8 * k);
        v[i] = x;
    }
}

void
Deserializer::finish()
{
    upc_assert(!inSection_);
    uint32_t sentinel = rawU32();
    if (sentinel != trailerSentinel)
        SNAP_FAIL("expected the trailer at offset %zu, found another "
                  "section (reader stopped early?)", pos_ - 4);
    uint64_t count = rawU64();
    if (count != sectionCount_)
        SNAP_FAIL("trailer says %llu sections, read %llu",
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(sectionCount_));
    if (pos_ != data_.size())
        SNAP_FAIL("%zu trailing bytes after the trailer",
                  data_.size() - pos_);
}

} // namespace vax::snap
