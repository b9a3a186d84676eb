/**
 * @file
 * Counter records and the one code that walks them.
 *
 * A counter record is a plain struct of uint64_t event counters
 * (HwCounters, CacheStats, TbStats, FaultStats and HwTotals' own
 * fields).  Each record names its counters once, in a
 * `static constexpr Counter<R> fields[]` table in declaration order:
 * registry leaf name, one-line description, member.  The walkers
 * below -- the weighted composite merge, stats registration and the
 * any-nonzero test -- and the checkpoint archives (support/archive.hh)
 * are the only code that loops over counters, so adding a counter is
 * one declaration plus one table entry.  A `static_assert(counter::covers<R>())`
 * beside each record ties the table to the record's size, so a
 * counter added without an entry does not compile.
 *
 * Table order is the serialization order: reordering a table changes
 * every checkpoint and campaign `.result` byte.
 */

#ifndef UPC780_SUPPORT_COUNTERS_HH
#define UPC780_SUPPORT_COUNTERS_HH

#include <cstdint>
#include <iterator>
#include <string>

#include "support/stats.hh"

namespace vax
{

/** One counter of record R. */
template <class R>
struct Counter
{
    const char *name; ///< registry leaf: "<prefix>.<name>"
    const char *desc;
    uint64_t R::*member;
};

namespace counter
{

/** True when R's table, plus the records R nests, account for every
 *  byte of R. */
template <class R, class... Nested>
constexpr bool
covers()
{
    return sizeof(R) == std::size(R::fields) * sizeof(uint64_t) +
        (sizeof(Nested) + ... + 0);
}

/** into += from * w, counter by counter (the composite merge). */
template <class R>
void
accumulate(R &into, const R &from, uint64_t w = 1)
{
    for (const Counter<R> &c : R::fields)
        into.*c.member += from.*c.member * w;
}

/** Register every counter as a live scalar "<prefix>.<name>". */
template <class R>
void
regStats(stats::Registry &r, const std::string &prefix, const R &rec)
{
    for (const Counter<R> &c : R::fields)
        r.addScalar(prefix + "." + c.name, c.desc, &(rec.*c.member));
}

template <class R>
bool
any(const R &rec)
{
    for (const Counter<R> &c : R::fields)
        if (rec.*c.member)
            return true;
    return false;
}

} // namespace counter
} // namespace vax

#endif // UPC780_SUPPORT_COUNTERS_HH
