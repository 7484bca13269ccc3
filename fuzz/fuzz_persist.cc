// Fuzz target: the qo/persist.h file reader. RecoverPersistFile must
// salvage or reject any byte soup without crashing.

#include <cstdint>
#include <string_view>

#include "qo/persist.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  constexpr size_t kMaxInput = 1 << 16;
  if (size > kMaxInput) size = kMaxInput;
  std::string_view bytes(reinterpret_cast<const char*>(data), size);
  for (aqo::PersistFileKind kind :
       {aqo::PersistFileKind::kSnapshot, aqo::PersistFileKind::kLog}) {
    aqo::RecoverPersistFile(bytes, kind);
  }
  return 0;
}
