#include "support/iofault.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include "support/logging.hh"
#include "support/parse.hh"
#include "support/random.hh"

namespace vax::io
{

namespace
{

/** Injected-stale files read this many seconds older than they are. */
constexpr double staleMtimePenalty = 1e6;

std::atomic<FaultInjector *> g_injector{nullptr};

thread_local Status t_lastStatus;

Status
record(Status st)
{
    t_lastStatus = st;
    return st;
}

Status
okStatus()
{
    return record(Status{});
}

Status
failStatus(int err, const char *stage)
{
    return record(Status{err ? err : EIO, stage});
}

/** One injector consult; None when no injector is installed. */
FaultKind
consult(OpClass op, const std::string &path)
{
    FaultInjector *inj = g_injector.load(std::memory_order_acquire);
    return inj ? inj->check(op, path) : FaultKind::None;
}

struct KindName
{
    FaultKind kind;
    const char *name;
};

constexpr KindName kindNames[] = {
    {FaultKind::Enospc, "enospc"},
    {FaultKind::Eio, "eio"},
    {FaultKind::ShortWrite, "shortwrite"},
    {FaultKind::ShortRead, "shortread"},
    {FaultKind::FsyncFail, "fsync"},
    {FaultKind::RenameFail, "rename"},
    {FaultKind::RenameLie, "renamelie"},
    {FaultKind::TornTmp, "torn"},
    {FaultKind::StaleMtime, "stale"},
};

uint64_t
parseNth(const std::string &entry, const std::string &text)
{
    std::optional<uint64_t> v = parseCount(text, UINT64_MAX);
    if (!v || !*v)
        fatal("io-faults: '%s': '%s' is not a positive operation "
              "index", entry.c_str(), text.c_str());
    return *v;
}

std::vector<std::string>
splitList(const std::string &s, char delim)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= s.size()) {
        size_t end = s.find(delim, pos);
        if (end == std::string::npos)
            end = s.size();
        if (end > pos)
            out.push_back(s.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

} // anonymous namespace

const char *
faultKindName(FaultKind k)
{
    for (const KindName &kn : kindNames)
        if (kn.kind == k)
            return kn.name;
    return "none";
}

OpClass
faultOpClass(FaultKind k)
{
    switch (k) {
      case FaultKind::Enospc:
      case FaultKind::ShortWrite:
      case FaultKind::TornTmp:
        return OpClass::Write;
      case FaultKind::Eio:
      case FaultKind::ShortRead:
        return OpClass::Read;
      case FaultKind::FsyncFail:
        return OpClass::Fsync;
      case FaultKind::RenameFail:
      case FaultKind::RenameLie:
        return OpClass::Rename;
      case FaultKind::StaleMtime:
        return OpClass::Stat;
      case FaultKind::None:
        break;
    }
    return OpClass::Write;
}

// =============== FaultPlan ===============

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    for (const std::string &entry : splitList(spec, ',')) {
        if (entry.compare(0, 5, "rand=") == 0) {
            FaultPlan sub = randomized(
                parseNth(entry, entry.substr(5)));
            plan.rules.insert(plan.rules.end(), sub.rules.begin(),
                              sub.rules.end());
            continue;
        }
        size_t at = entry.find('@');
        if (at == std::string::npos)
            fatal("io-faults: malformed entry '%s' (want "
                  "kind@N[~substr] or rand=SEED)", entry.c_str());
        std::string kind = entry.substr(0, at);
        std::string rest = entry.substr(at + 1);
        std::string match;
        size_t tilde = rest.find('~');
        if (tilde != std::string::npos) {
            match = rest.substr(tilde + 1);
            rest = rest.substr(0, tilde);
            if (match.empty())
                fatal("io-faults: '%s': empty ~substr filter",
                      entry.c_str());
        }
        FaultRule rule;
        rule.nth = parseNth(entry, rest);
        rule.match = match;
        for (const KindName &kn : kindNames)
            if (kind == kn.name)
                rule.kind = kn.kind;
        if (rule.kind == FaultKind::None)
            fatal("io-faults: unknown kind '%s' (have: enospc, eio, "
                  "shortwrite, shortread, fsync, rename, renamelie, "
                  "torn, stale)", kind.c_str());
        plan.rules.push_back(rule);
    }
    return plan;
}

FaultPlan
FaultPlan::fromEnv()
{
    const char *env = std::getenv("UPC780_IO_FAULTS");
    if (!env || !*env)
        return FaultPlan();
    return parse(env);
}

std::string
FaultPlan::format() const
{
    std::string out;
    for (const FaultRule &r : rules) {
        if (!out.empty())
            out += ',';
        out += faultKindName(r.kind);
        out += '@';
        out += std::to_string(r.nth);
        if (!r.match.empty())
            out += '~' + r.match;
    }
    return out;
}

FaultPlan
FaultPlan::randomized(uint64_t seed)
{
    // Deterministic per seed: the chaos drill hands each shard spawn
    // its own seed, and a failing schedule can be replayed exactly.
    Rng rng(seed ^ 0x10FA17ULL);
    static const FaultKind kinds[] = {
        FaultKind::Enospc,     FaultKind::Eio,
        FaultKind::ShortWrite, FaultKind::ShortRead,
        FaultKind::FsyncFail,  FaultKind::RenameFail,
        FaultKind::RenameLie,  FaultKind::TornTmp,
        FaultKind::StaleMtime,
    };
    // Bias the filters toward the campaign's hot files so schedules
    // actually land; "" keeps whole-stream faults in the mix.
    static const char *matches[] = {"", "", ".ckpt", ".result", ".hb",
                                    "job0"};
    FaultPlan plan;
    unsigned n = 1 + rng.below(3);
    for (unsigned i = 0; i < n; ++i) {
        FaultRule r;
        r.kind = kinds[rng.below(sizeof(kinds) / sizeof(kinds[0]))];
        r.nth = 1 + rng.below(10);
        r.match =
            matches[rng.below(sizeof(matches) / sizeof(matches[0]))];
        plan.rules.push_back(r);
    }
    return plan;
}

// =============== FaultInjector ===============

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan))
{
    for (const FaultRule &r : plan_.rules)
        states_.push_back(RuleState{r, 0, false});
}

FaultKind
FaultInjector::check(OpClass op, const std::string &path)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.opsSeen;
    FaultKind fire = FaultKind::None;
    for (RuleState &rs : states_) {
        if (rs.fired || faultOpClass(rs.rule.kind) != op)
            continue;
        if (!rs.rule.match.empty() &&
            path.find(rs.rule.match) == std::string::npos)
            continue;
        ++rs.seen;
        if (rs.seen < rs.rule.nth || fire != FaultKind::None)
            continue;
        rs.fired = true;
        fire = rs.rule.kind;
        ++stats_.delivered;
        ++stats_.perKind[static_cast<size_t>(fire)];
        warn("io-faults: injecting %s at op #%llu on '%s'",
             faultKindName(fire),
             static_cast<unsigned long long>(rs.seen), path.c_str());
    }
    return fire;
}

FaultStats
FaultInjector::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
installFaultInjector(FaultInjector *inj)
{
    g_injector.store(inj, std::memory_order_release);
}

FaultInjector *
faultInjector()
{
    return g_injector.load(std::memory_order_acquire);
}

Status
lastStatus()
{
    return t_lastStatus;
}

// =============== File ===============

Status
File::openWrite(const std::string &path)
{
    closeQuiet();
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
    if (fd_ < 0)
        return failStatus(errno, "open");
    path_ = path;
    return okStatus();
}

Status
File::openRead(const std::string &path)
{
    closeQuiet();
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0)
        return failStatus(errno, "open");
    path_ = path;
    return okStatus();
}

Status
File::writeAll(const void *data, size_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    size_t done = 0;
    while (done < len) {
        size_t want = len - done;
        switch (consult(OpClass::Write, path_)) {
          case FaultKind::Enospc:
            // The disk filled mid-file: some bytes land, then ENOSPC.
            if (want > 1)
                (void)!::write(fd_, p + done, want / 2);
            return failStatus(ENOSPC, "write");
          case FaultKind::TornTmp:
            // Power died mid-file: partial bytes stay on disk and the
            // writer never hears back.  Model: half the remainder is
            // written, then the operation errors out, leaving the
            // torn image for a later reader to trip over.
            if (want > 1)
                (void)!::write(fd_, p + done, want / 2);
            return failStatus(EIO, "write");
          case FaultKind::ShortWrite:
            // A lying write(2): silently accepts half.  The loop
            // below must absorb it -- that is the point.
            if (want > 1)
                want /= 2;
            break;
          default:
            break;
        }
        ssize_t n = ::write(fd_, p + done, want);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return failStatus(errno, "write");
        }
        done += static_cast<size_t>(n);
    }
    return okStatus();
}

Status
File::readSome(void *out, size_t len, size_t *got)
{
    *got = 0;
    switch (consult(OpClass::Read, path_)) {
      case FaultKind::Eio:
        return failStatus(EIO, "read");
      case FaultKind::ShortRead:
        // The stream ends early: deliver EOF with bytes missing; the
        // whole-file readers detect the size mismatch and fail.
        return okStatus();
      default:
        break;
    }
    for (;;) {
        ssize_t n = ::read(fd_, out, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return failStatus(errno, "read");
        }
        *got = static_cast<size_t>(n);
        return okStatus();
    }
}

Status
File::size(uint64_t *out) const
{
    struct stat st;
    if (::fstat(fd_, &st) != 0)
        return failStatus(errno, "stat");
    *out = static_cast<uint64_t>(st.st_size);
    return okStatus();
}

Status
File::sync()
{
    if (consult(OpClass::Fsync, path_) == FaultKind::FsyncFail)
        return failStatus(EIO, "fsync");
    if (::fsync(fd_) != 0)
        return failStatus(errno, "fsync");
    return okStatus();
}

Status
File::close()
{
    if (fd_ < 0)
        return okStatus();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0)
        return failStatus(errno, "close");
    return okStatus();
}

void
File::closeQuiet()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

// =============== whole-file operations ===============

Status
syncParentDir(const std::string &path)
{
    size_t slash = path.rfind('/');
    std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    if (dir.empty())
        dir = "/";
    if (consult(OpClass::Fsync, dir) == FaultKind::FsyncFail)
        return failStatus(EIO, "dirsync");
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return failStatus(errno, "dirsync");
    Status st;
    if (::fsync(fd) != 0)
        st = Status{errno ? errno : EIO, "dirsync"};
    ::close(fd);
    return record(st);
}

Status
atomicWrite(const std::string &path, const void *data, size_t len)
{
    std::string tmp =
        path + ".tmp" + std::to_string(static_cast<long>(::getpid()));
    File f;
    Status st = f.openWrite(tmp);
    if (!st) {
        warn("io: cannot create '%s': %s", tmp.c_str(),
             std::strerror(st.err));
        return record(st);
    }
    st = f.writeAll(data, len);
    if (st)
        st = f.sync();
    if (st)
        st = f.close();
    if (!st) {
        warn("io: cannot write '%s' (%s: %s)", tmp.c_str(), st.stage,
             std::strerror(st.err));
        f.closeQuiet();
        ::unlink(tmp.c_str());
        return record(st);
    }
    st = renameFile(tmp, path);
    if (!st) {
        warn("io: cannot rename '%s' into place (%s)", tmp.c_str(),
             std::strerror(st.err));
        ::unlink(tmp.c_str());
        return record(st);
    }
    st = syncParentDir(path);
    if (!st) {
        // The bytes are in place; only the *rename's* durability is
        // unknown.  Report the failure -- a checkpoint writer may
        // choose to pause -- but do not undo the visible rename.
        warn("io: cannot fsync parent of '%s' (%s)", path.c_str(),
             std::strerror(st.err));
        return record(st);
    }
    return okStatus();
}

Status
atomicWriteText(const std::string &path, const std::string &text)
{
    return atomicWrite(path, text.data(), text.size());
}

Status
readFile(const std::string &path, std::vector<uint8_t> *out,
         uint64_t maxLen)
{
    out->clear();
    File f;
    Status st = f.openRead(path);
    if (!st)
        return record(st);
    uint64_t sz = 0;
    st = f.size(&sz);
    if (!st)
        return record(st);
    if (maxLen && sz > maxLen)
        return failStatus(EFBIG, "read");
    out->resize(static_cast<size_t>(sz));
    size_t done = 0;
    while (done < out->size()) {
        size_t got = 0;
        st = f.readSome(out->data() + done, out->size() - done, &got);
        if (!st)
            return record(st);
        if (got == 0)
            // EOF before the stat size: a torn or truncated file.
            return failStatus(EIO, "short");
        done += got;
    }
    return okStatus();
}

Status
readFileText(const std::string &path, std::string *out,
             uint64_t maxLen)
{
    std::vector<uint8_t> bytes;
    Status st = readFile(path, &bytes, maxLen);
    out->assign(reinterpret_cast<const char *>(bytes.data()),
                bytes.size());
    return st;
}

Status
renameFile(const std::string &from, const std::string &to)
{
    switch (consult(OpClass::Rename, to)) {
      case FaultKind::RenameFail:
        return failStatus(EIO, "rename");
      case FaultKind::RenameLie:
        // The nasty shared-filesystem case: the rename is performed,
        // but the caller is told it failed.  Callers must stay
        // correct when a "failed" rename actually happened.
        (void)::rename(from.c_str(), to.c_str());
        return failStatus(EIO, "rename");
      default:
        break;
    }
    if (::rename(from.c_str(), to.c_str()) != 0)
        return failStatus(errno, "rename");
    return okStatus();
}

double
fileAgeSeconds(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return -1.0;
    struct timeval tv;
    ::gettimeofday(&tv, nullptr);
    double now =
        static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    double mtime = static_cast<double>(st.st_mtim.tv_sec) +
        st.st_mtim.tv_nsec * 1e-9;
    double age = now - mtime;
    if (consult(OpClass::Stat, path) == FaultKind::StaleMtime)
        age += staleMtimePenalty;
    return age;
}

} // namespace vax::io
