/**
 * @file
 * String escaping for the hand-written JSON emitters (--stats-json,
 * serve STATS, the scenario and bench reports).
 */

#ifndef GPX_UTIL_JSON_HH
#define GPX_UTIL_JSON_HH

#include <cstdio>
#include <string>

namespace gpx {
namespace util {

/**
 * @p s escaped for use inside a JSON string literal: quote, backslash
 * and every control character.
 */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
            break;
        }
    }
    return out;
}

} // namespace util
} // namespace gpx

#endif // GPX_UTIL_JSON_HH
