#include "support/archive.hh"

#include <charconv>

namespace vax::snap
{

std::string
FieldPath::str() const
{
    std::string s;
    for (unsigned i = 0; i < depth_; ++i) {
        if (!segs_[i].name)
            s += "[" + std::to_string(segs_[i].index) + "]";
        else
            s += (i ? "." : "") + std::string(segs_[i].name);
    }
    return s;
}

bool
FieldPath::is(std::string_view dotted) const
{
    // Character by character, so a walker asking of every field
    // stops at the first mismatch.
    const char *p = dotted.data();
    const char *end = p + dotted.size();
    auto match = [&](const char *s) {
        for (; *s; ++s)
            if (p == end || *p++ != *s)
                return false;
        return true;
    };
    for (unsigned i = 0; i < depth_; ++i) {
        if (!segs_[i].name) {
            char buf[24] = "[";
            *std::to_chars(buf + 1, buf + sizeof(buf) - 2,
                           segs_[i].index).ptr = ']';
            if (!match(buf))
                return false;
        } else if ((i && !match(".")) || !match(segs_[i].name)) {
            return false;
        }
    }
    return p == end;
}

void
failField(const FieldPath &path, const std::string &what)
{
    // A Deserializer error already says "snapshot: " and where.
    const std::string prefix = "snapshot: ";
    throw SnapshotError(prefix + "field '" + path.str() + "': " +
                        (what.starts_with(prefix)
                             ? what.substr(prefix.size())
                             : what));
}

void
Loader::close()
{
    try {
        d_.endSection();
    } catch (const SnapshotError &e) {
        throw SnapshotError(std::string(e.what()) +
                            " after its last field '" + last_.str() +
                            "'");
    }
}

} // namespace vax::snap
