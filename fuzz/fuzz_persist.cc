// Fuzz target: qo/persist.h file readers. The lenient recovery path
// (RecoverPersistFile) must salvage or reject any byte soup without
// crashing, and must agree with the strict reader (ReadPersistFile)
// whenever the strict reader accepts.

#include <cstdint>
#include <sstream>
#include <string>

#include "qo/persist.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  constexpr size_t kMaxInput = 1 << 16;
  if (size > kMaxInput) size = kMaxInput;
  std::string bytes(reinterpret_cast<const char*>(data), size);

  for (aqo::PersistFileKind kind :
       {aqo::PersistFileKind::kSnapshot, aqo::PersistFileKind::kLog}) {
    std::istringstream lenient_in(bytes);
    aqo::PersistFileInfo lenient = aqo::RecoverPersistFile(lenient_in, kind);

    std::istringstream strict_in(bytes);
    aqo::ParseResult<std::vector<aqo::PersistedEntry>> strict =
        aqo::ReadPersistFile(strict_in, kind);
    if (strict.ok()) {
      // Strict acceptance implies the lenient reader salvages everything
      // with no damage and no torn tail.
      AQO_CHECK(lenient.damage.empty()) << lenient.damage;
      AQO_CHECK(!lenient.torn_tail);
      AQO_CHECK(lenient.entries.size() == strict.value->size());
    } else {
      AQO_CHECK(!strict.error.empty());
    }
  }
  return 0;
}
