/**
 * @file
 * The unified statistics registry.
 *
 * gem5-style named statistics: every component registers its counters
 * under a hierarchical dotted name ("cpu.mem.cache.readRefsD") with a
 * one-line description, and the registry renders the whole set as
 * aligned text, CSV, or JSON.  Three stat kinds:
 *
 *  - scalar: a live uint64_t counter, referenced by pointer or by a
 *    getter callable -- registration never copies a value, so a dump
 *    always reflects the current state of the machine;
 *  - vector: a named family of scalars (flattened to "name.elem");
 *  - formula: a double computed at dump time from other quantities
 *    (rates, ratios, CPI).
 *
 * Dumps are deterministic: stats are kept sorted by name and values
 * are printed with fixed formats, so two simulations of the same seed
 * produce byte-identical dumps -- serial or pooled (the simulator's
 * merge layer is bit-exact).  Wall-clock quantities therefore do NOT
 * belong in the registry; they live in the driver's PoolTelemetry.
 *
 * Lifetime: the registry stores pointers/closures over component
 * counters; it must not outlive the components it describes.
 */

#ifndef UPC780_SUPPORT_STATS_HH
#define UPC780_SUPPORT_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace vax::stats
{

class Registry
{
  public:
    using ScalarFn = std::function<uint64_t()>;
    using FormulaFn = std::function<double()>;

    enum class Kind : uint8_t { Scalar, Formula };

    struct Stat
    {
        std::string name;
        std::string desc;
        Kind kind = Kind::Scalar;
        ScalarFn scalar;   ///< valid when kind == Scalar
        FormulaFn formula; ///< valid when kind == Formula

        /** Current value as a double (formulas and scalars alike). */
        double asDouble() const;
        /** Current scalar value (0 for formulas; use asDouble). */
        uint64_t asScalar() const;
    };

    /** Register a scalar backed by a live counter. */
    void addScalar(const std::string &name, const std::string &desc,
                   const uint64_t *counter);

    /** Register a scalar backed by a getter. */
    void addScalar(const std::string &name, const std::string &desc,
                   ScalarFn fn);

    /**
     * Register a vector stat: one scalar per element, flattened to
     * "name.elem" so dumps and lookups stay uniform.
     */
    void addVector(
        const std::string &name, const std::string &desc,
        const std::vector<std::pair<std::string, const uint64_t *>>
            &elems);

    /** Register a derived quantity evaluated at dump time. */
    void addFormula(const std::string &name, const std::string &desc,
                    FormulaFn fn);

    /** Look up a stat by full name; nullptr if absent. */
    const Stat *find(const std::string &name) const;

    size_t size() const { return stats_.size(); }
    bool empty() const { return stats_.empty(); }

    /** All stats in name order (the dump order). */
    std::vector<const Stat *> sorted() const;

    /** @{ Render the full registry.  Deterministic byte-for-byte. */
    std::string dumpText() const;
    std::string dumpCsv() const;
    std::string dumpJson() const;
    /** @} */

    /** @{ Write a dump to a file; false (with warn) on I/O failure. */
    bool saveText(const std::string &path) const;
    bool saveCsv(const std::string &path) const;
    bool saveJson(const std::string &path) const;
    /** @} */

  private:
    void add(Stat s);
    static bool writeFile(const std::string &path,
                          const std::string &content);

    std::map<std::string, Stat> stats_; ///< name-sorted: dump order
};

/** Render a stat value the way every dump format does (scalars as
 *  integers, formulas as shortest-round-trip decimals). */
std::string formatValue(const Registry::Stat &s);

} // namespace vax::stats

#endif // UPC780_SUPPORT_STATS_HH
