#include "storage/codec.h"

namespace recraft::storage {

namespace {

struct Crc32Table {
  uint32_t t[256];
  constexpr Crc32Table() : t{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};
constexpr Crc32Table kCrcTable{};

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = kCrcTable.t[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace recraft::storage
