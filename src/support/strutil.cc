#include "support/strutil.h"

#include <cstdarg>
#include <cstdio>

namespace beehive {

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string out = vstrprintf(fmt, args);
    va_end(args);
    return out;
}

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    std::string out;
    if (len > 0) {
        out.resize(len);
        std::vsnprintf(out.data(), len + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

std::vector<std::string>
splitString(const std::string &s, char sep)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
            parts.push_back(s.substr(start));
            break;
        }
        parts.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return parts;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
humanBytes(std::size_t bytes)
{
    const char *units[] = {"B", "KB", "MB", "GB"};
    double v = static_cast<double>(bytes);
    int unit = 0;
    while (v >= 1024.0 && unit < 3) {
        v /= 1024.0;
        ++unit;
    }
    return strprintf("%.1f %s", v, units[unit]);
}

} // namespace beehive
