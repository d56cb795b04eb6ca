#ifndef VLQ_OBS_JSON_H
#define VLQ_OBS_JSON_H

#include <string>
#include <string_view>

namespace vlq {
namespace obs {

/**
 * JSON-escape and quote a string ("a\"b" -> "\"a\\\"b\""). Control
 * bytes are escaped, and so is every byte that does not start a
 * well-formed UTF-8 sequence (RFC 3629), as \u00XX: the result is
 * valid UTF-8 whatever bytes `s` holds.
 */
std::string jsonQuote(std::string_view s);

/**
 * Render a double as a JSON number: finite values round-trip through
 * %.17g trimmed; NaN/inf (not representable in JSON) become null.
 */
std::string jsonNumber(double value);

/**
 * Minimal strict JSON syntax checker (objects, arrays, strings,
 * numbers, true/false/null; rejects trailing garbage and strings that
 * are not well-formed UTF-8). Used by the test suite to validate
 * emitted reports and traces without an external parser dependency.
 *
 * @return true when `text` is one well-formed JSON value; on failure
 *         returns false and fills *err (when non-null) with a
 *         byte-offset diagnostic.
 */
bool jsonLint(std::string_view text, std::string* err = nullptr);

} // namespace obs
} // namespace vlq

#endif // VLQ_OBS_JSON_H
