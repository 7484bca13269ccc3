#ifndef AQO_TESTS_JSON_READER_H_
#define AQO_TESTS_JSON_READER_H_

// Test-only JSON reader: parses the run-log and trace-event lines the
// program writes back into obs::JsonValue documents, built through
// JsonValue's public API, so the tests can assert on their schema. The
// program itself only writes JSON.

#include <optional>
#include <string_view>

#include "obs/json.h"

namespace aqo {

// Strict-enough parser; nullopt on malformed input or trailing garbage.
// Numbers read as int64, then uint64, then double; \uXXXX escapes decode
// to UTF-8 (BMP only).
std::optional<obs::JsonValue> ParseJson(std::string_view text);

}  // namespace aqo

#endif  // AQO_TESTS_JSON_READER_H_
