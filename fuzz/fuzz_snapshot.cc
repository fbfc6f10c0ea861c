// Fuzzes the binary snapshot loader — the one surface that parses
// attacker-controllable bytes from disk (a shared artifact directory is
// only as trustworthy as its slowest rsync). ParseSnapshot must fail
// closed on anything malformed: no crash, no overflow, no partial table.
// The encoding is canonical (the decoder rejects nonzero padding, flags,
// size slack and a version word other than the one the attribute is
// written with), so every accepted input must re-encode to itself byte
// for byte. The encoder only writes versions 2 and 3, so that also means
// the retired v1 seeds kept in the corpus must be rejected.

#include <string>
#include <string_view>

#include "store/snapshot.h"

#include "fuzz_driver.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view bytes(reinterpret_cast<const char*>(data), size);

  auto parsed = wsd::ParseSnapshot(bytes);
  if (!parsed.ok()) return 0;  // rejected cleanly — that is the contract

  auto reencoded = wsd::SerializeSnapshotAligned(parsed->result, parsed->meta);
  WSD_FUZZ_ASSERT(reencoded.ok());
  WSD_FUZZ_ASSERT(*reencoded == bytes);
  return 0;
}
