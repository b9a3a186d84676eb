/**
 * @file
 * Checkpoint fields by name, through the walker (support/archive.hh):
 * what byte-identity tests report when two machines differ.
 */

#ifndef UPC780_TESTS_FIELD_WALK_HH
#define UPC780_TESTS_FIELD_WALK_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "support/archive.hh"

namespace vax::test
{

/** One field as the walker yields it. */
struct NamedField
{
    std::string name;
    std::vector<uint8_t> bytes;
};

/** Every field of obj in image order; bulk blobs only with bulk. */
template <class T>
std::vector<NamedField>
namedFields(const T &obj, bool bulk = true)
{
    std::vector<NamedField> out;
    snap::walk(
        obj,
        [&](const snap::FieldPath &f, std::span<const uint8_t> b) {
            out.push_back({f.str(), {b.begin(), b.end()}});
        },
        bulk);
    return out;
}

/** A field's bytes as a failure message quotes them: in full when
 *  short, else the length and the first offset where other differs. */
inline std::string
quoteBytes(const std::vector<uint8_t> &b, const std::vector<uint8_t> &other)
{
    char buf[64];
    if (b.size() <= 16) {
        std::string s;
        for (uint8_t x : b) {
            std::snprintf(buf, sizeof buf, "%02x", x);
            s += buf;
        }
        return s.empty() ? "(empty)" : s;
    }
    size_t at = std::mismatch(b.begin(), b.end(), other.begin(),
                              other.end()).first - b.begin();
    std::snprintf(buf, sizeof buf, "%zu bytes, first difference at %zu",
                  b.size(), at);
    return buf;
}

/** "first differing field: <dotted name> (<a> vs <b>)", or why none
 *  does.  The walk of a and b is what save() writes for each. */
template <class T>
std::string
firstDifference(const T &a, const T &b, bool bulk = true)
{
    std::vector<NamedField> fa = namedFields(a, bulk);
    std::vector<NamedField> fb = namedFields(b, bulk);
    for (size_t i = 0; i < std::min(fa.size(), fb.size()); ++i) {
        if (fa[i].name != fb[i].name)
            return "first differing field: " + fa[i].name + " vs " +
                fb[i].name + " (the field lists diverge)";
        if (fa[i].bytes != fb[i].bytes)
            return "first differing field: " + fa[i].name + " (" +
                quoteBytes(fa[i].bytes, fb[i].bytes) + " vs " +
                quoteBytes(fb[i].bytes, fa[i].bytes) + ")";
    }
    if (fa.size() != fb.size()) {
        const NamedField &extra =
            fa.size() > fb.size() ? fa[fb.size()] : fb[fa.size()];
        return "first differing field: " + extra.name +
            " (in one machine only)";
    }
    return "no field differs (only the section framing does)";
}

} // namespace vax::test

#endif // UPC780_TESTS_FIELD_WALK_HH
