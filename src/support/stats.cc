#include "support/stats.hh"

#include <cstdio>
#include <cstring>

#include "support/iofault.hh"
#include "support/logging.hh"
#include "support/ujson.hh"

namespace vax::stats
{

double
Registry::Stat::asDouble() const
{
    if (kind == Kind::Formula)
        return formula();
    return static_cast<double>(scalar());
}

uint64_t
Registry::Stat::asScalar() const
{
    if (kind == Kind::Scalar)
        return scalar();
    return 0;
}

void
Registry::add(Stat s)
{
    if (s.name.empty())
        panic("stats: empty stat name");
    auto [it, inserted] = stats_.emplace(s.name, std::move(s));
    if (!inserted)
        panic("stats: duplicate registration of '%s'",
              it->first.c_str());
}

void
Registry::addScalar(const std::string &name, const std::string &desc,
                    const uint64_t *counter)
{
    upc_assert(counter != nullptr);
    addScalar(name, desc, [counter] { return *counter; });
}

void
Registry::addScalar(const std::string &name, const std::string &desc,
                    ScalarFn fn)
{
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = Kind::Scalar;
    s.scalar = std::move(fn);
    add(std::move(s));
}

void
Registry::addVector(
    const std::string &name, const std::string &desc,
    const std::vector<std::pair<std::string, const uint64_t *>> &elems)
{
    for (const auto &[elem, counter] : elems)
        addScalar(name + "." + elem, desc + " [" + elem + "]", counter);
}

void
Registry::addFormula(const std::string &name, const std::string &desc,
                     FormulaFn fn)
{
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = Kind::Formula;
    s.formula = std::move(fn);
    add(std::move(s));
}

const Registry::Stat *
Registry::find(const std::string &name) const
{
    auto it = stats_.find(name);
    return it == stats_.end() ? nullptr : &it->second;
}

std::vector<const Registry::Stat *>
Registry::sorted() const
{
    std::vector<const Stat *> out;
    out.reserve(stats_.size());
    for (const auto &[name, stat] : stats_)
        out.push_back(&stat);
    return out;
}

std::string
formatValue(const Registry::Stat &s)
{
    char buf[64];
    if (s.kind == Registry::Kind::Scalar) {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(s.asScalar()));
    } else {
        // %.12g is stable for identical doubles, compact for the
        // rates/ratios formulas compute, and JSON-parseable.
        std::snprintf(buf, sizeof(buf), "%.12g", s.asDouble());
    }
    return buf;
}

std::string
Registry::dumpText() const
{
    size_t name_w = 0;
    size_t val_w = 0;
    std::vector<std::string> values;
    values.reserve(stats_.size());
    for (const auto &[name, stat] : stats_) {
        values.push_back(formatValue(stat));
        if (name.size() > name_w)
            name_w = name.size();
        if (values.back().size() > val_w)
            val_w = values.back().size();
    }
    std::string out;
    size_t i = 0;
    for (const auto &[name, stat] : stats_) {
        out += name;
        out.append(name_w - name.size() + 2, ' ');
        out.append(val_w - values[i].size(), ' ');
        out += values[i];
        if (!stat.desc.empty()) {
            out += "  # ";
            out += stat.desc;
        }
        out += '\n';
        ++i;
    }
    return out;
}

namespace
{

/** CSV-quote a field (descriptions may contain commas/quotes). */
std::string
csvQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // anonymous namespace

std::string
Registry::dumpCsv() const
{
    std::string out = "name,value,desc\n";
    for (const auto &[name, stat] : stats_) {
        out += name;
        out += ',';
        out += formatValue(stat);
        out += ',';
        out += csvQuote(stat.desc);
        out += '\n';
    }
    return out;
}

std::string
Registry::dumpJson() const
{
    std::string out = "{\n  \"stats\": [\n";
    size_t i = 0;
    for (const auto &[name, stat] : stats_) {
        out += "    {\"name\": \"";
        out += ujson::escape(name);
        out += "\", \"value\": ";
        out += formatValue(stat);
        out += ", \"desc\": \"";
        out += ujson::escape(stat.desc);
        out += "\"}";
        if (++i < stats_.size())
            out += ',';
        out += '\n';
    }
    out += "  ]\n}\n";
    return out;
}

bool
Registry::writeFile(const std::string &path,
                    const std::string &content)
{
    // Durable atomic write through the host-I/O fault layer: a stats
    // dump is a campaign-visible file, and a reader (or a
    // byte-identity test) must never observe a half-written one --
    // even across power loss, which plain tmp+rename does not cover.
    return static_cast<bool>(io::atomicWriteText(path, content));
}

bool
Registry::saveText(const std::string &path) const
{
    return writeFile(path, dumpText());
}

bool
Registry::saveCsv(const std::string &path) const
{
    return writeFile(path, dumpCsv());
}

bool
Registry::saveJson(const std::string &path) const
{
    return writeFile(path, dumpJson());
}

std::string
parseStatsJsonFlag(int *argc, char **argv)
{
    std::string path;
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--stats-json") == 0 && i + 1 < *argc) {
            path = argv[++i];
        } else if (std::strncmp(arg, "--stats-json=", 13) == 0) {
            path = arg + 13;
        } else {
            argv[out++] = argv[i];
        }
    }
    argv[out] = nullptr;
    *argc = out;
    return path;
}

} // namespace vax::stats
