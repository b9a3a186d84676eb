#include "support/parse.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace vax
{

std::optional<uint64_t>
parseCount(const std::string &text, uint64_t max)
{
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (errno || end != text.c_str() + text.size() || v > max)
        return std::nullopt;
    return v;
}

} // namespace vax
