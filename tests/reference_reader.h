#ifndef AQO_TESTS_REFERENCE_READER_H_
#define AQO_TESTS_REFERENCE_READER_H_

// Test-only reference for the instance readers in io/serialization.h:
// the std::istringstream reader they replaced, kept verbatim so the
// differential tests and the fuzz harness can require that the
// hand-written reader accepts, rejects, builds and words its errors
// exactly as the iostreams one did (libstdc++ num_get plus strtod in the
// "C" locale). It has no io.parse fault site.

#include <iosfwd>
#include <string>
#include <string_view>

#include "qo/qoh.h"
#include "qo/qon.h"
#include "util/parse_result.h"

namespace aqo::reference {

ParseResult<QonInstance> ParseQonInstance(std::istream& is);
ParseResult<QohInstance> ParseQohInstance(std::istream& is);

// Reads `text` as both families through both entry points of
// io/serialization.h and through the reference, and names the first
// difference in the accept/reject decision, the error string or any bit
// of the built instance; "" when there is none.
std::string CompareWithReference(std::string_view text);

}  // namespace aqo::reference

#endif  // AQO_TESTS_REFERENCE_READER_H_
