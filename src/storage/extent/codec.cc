#include "storage/extent/codec.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "common/crc32.h"

namespace aqp {
namespace extent {

std::string_view CodecName(Codec c) {
  switch (c) {
    case Codec::kPlain: return "plain";
    case Codec::kRle: return "rle";
    case Codec::kDelta: return "delta";
    case Codec::kDict: return "dict";
    case Codec::kBytes: return "lz";
  }
  return "?";
}

CodecChoice ParseCodecChoice(std::string_view name) {
  if (name == "plain") return CodecChoice::kPlain;
  if (name == "rle") return CodecChoice::kRle;
  if (name == "delta") return CodecChoice::kDelta;
  if (name == "dict") return CodecChoice::kDict;
  if (name == "lz" || name == "bytes") return CodecChoice::kBytes;
  return CodecChoice::kAuto;
}

// --- Primitives ------------------------------------------------------------

void PutVarint(ByteWriter* w, uint64_t v) {
  while (v >= 0x80) {
    w->PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w->PutU8(static_cast<uint8_t>(v));
}

namespace {

// A decoded varint and the byte after it; next is null when malformed.
struct Varint {
  const uint8_t* next;
  uint64_t value;
};

// The general varint loop behind ReadVarint. It takes and returns the
// pointer by value, so the callers' cursors never escape to memory.
Varint ReadVarintSlow(const uint8_t* q, const uint8_t* end, Status* error) {
  uint64_t v = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    if (q == end) {
      *error = Status::OutOfRange("serialized buffer truncated");
      return {nullptr, 0};
    }
    const uint8_t byte = *q++;
    if (shift == 63 && (byte & 0xFE) != 0) {
      *error = Status::OutOfRange("varint overflows 64 bits");
      return {nullptr, 0};
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return {q, v};
  }
  *error = Status::OutOfRange("varint longer than 10 bytes");
  return {nullptr, 0};
}

// The varint at *p, advancing *p past it. False, with *error set, when it
// runs past `end`, overflows 64 bits or is longer than 10 bytes. GetVarint
// and every chunk decoder read varints through it (ForEachVarint only adds
// an inline path for short ones), so all report the same statuses.
inline bool ReadVarint(const uint8_t** p, const uint8_t* end, uint64_t* out,
                       Status* error) {
  const uint8_t* q = *p;
  if (q < end && q[0] < 0x80) {  // One-byte fast path.
    *out = q[0];
    *p = q + 1;
    return true;
  }
  const Varint v = ReadVarintSlow(q, end, error);
  if (v.next == nullptr) return false;
  *out = v.value;
  *p = v.next;
  return true;
}

// Decodes `n` consecutive varints at q, calling f(i, value) for i = 0..n-1
// and stopping early when f returns false. The inner loop takes one- and
// two-byte varints without a call, so its cursor and counters stay in
// registers; longer varints and the last byte go through ReadVarint.
template <typename F>
bool ForEachVarint(const uint8_t* q, const uint8_t* end, uint32_t n,
                   Status* error, F&& f) {
  uint32_t i = 0;
  while (i < n) {
    for (; i < n && end - q >= 2; ++i) {
      uint64_t v = q[0];
      if (v < 0x80) {
        q += 1;
      } else if (q[1] < 0x80) {
        v = (v & 0x7F) | (static_cast<uint64_t>(q[1]) << 7);
        q += 2;
      } else {
        break;
      }
      if (!f(i, v)) return false;
    }
    if (i == n) break;
    uint64_t v = 0;
    if (!ReadVarint(&q, end, &v, error) || !f(i, v)) return false;
    ++i;
  }
  return true;
}

const uint8_t* Bytes(std::string_view s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

}  // namespace

Result<uint64_t> GetVarint(ByteReader* r) {
  const std::string_view rest = r->rest();
  const uint8_t* p = Bytes(rest);
  uint64_t v = 0;
  Status error;
  if (!ReadVarint(&p, p + rest.size(), &v, &error)) return error;
  AQP_RETURN_IF_ERROR(r->Skip(static_cast<size_t>(p - Bytes(rest))));
  return v;
}

// --- Byte RLE --------------------------------------------------------------

void RleEncode(const uint8_t* data, size_t n, ByteWriter* w) {
  size_t i = 0;
  size_t lit_start = 0;  // Pending literal range [lit_start, i).
  auto flush_literals = [&](size_t end) {
    size_t pos = lit_start;
    while (pos < end) {
      // Literal token lengths are unbounded in the format; chunking keeps
      // any single memcpy modest.
      size_t len = std::min<size_t>(end - pos, 1u << 20);
      PutVarint(w, (static_cast<uint64_t>(len) << 1) | 0);
      w->PutBytes(data + pos, len);
      pos += len;
    }
  };
  while (i < n) {
    size_t run = 1;
    while (i + run < n && data[i + run] == data[i]) ++run;
    // A run token costs >= 2 bytes; only profitable for runs of 3+.
    if (run >= 3) {
      flush_literals(i);
      PutVarint(w, (static_cast<uint64_t>(run) << 1) | 1);
      w->PutU8(data[i]);
      i += run;
      lit_start = i;
    } else {
      i += run;
    }
  }
  flush_literals(n);
}

Status RleDecode(ByteReader* r, size_t n, std::vector<uint8_t>* out) {
  size_t produced = 0;
  out->reserve(out->size() + n);
  while (produced < n) {
    AQP_ASSIGN_OR_RETURN(uint64_t token, GetVarint(r));
    const bool is_run = (token & 1) != 0;
    const uint64_t len = token >> 1;
    if (len == 0 || len > n - produced) {
      return Status::OutOfRange("RLE token overruns decoded length");
    }
    if (is_run) {
      AQP_ASSIGN_OR_RETURN(uint8_t b, r->GetU8());
      out->insert(out->end(), len, b);
    } else {
      size_t old = out->size();
      out->resize(old + len);
      AQP_RETURN_IF_ERROR(r->GetBytes(out->data() + old, len));
    }
    produced += len;
  }
  return Status::OK();
}

// --- LZ byte codec ---------------------------------------------------------

namespace {

inline uint32_t LzHash(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 17;  // 15-bit table index.
}

constexpr size_t kLzTableSize = 1u << 15;
constexpr size_t kLzMaxOffset = 65535;
constexpr size_t kLzMinMatch = 4;

}  // namespace

void LzEncode(const uint8_t* data, size_t n, std::string* out) {
  ByteWriter w;
  std::vector<uint32_t> table(kLzTableSize, 0xFFFFFFFFu);
  size_t i = 0;
  size_t lit_start = 0;
  auto emit = [&](size_t lit_end, size_t match_len, size_t offset) {
    const size_t lit_len = lit_end - lit_start;
    const uint64_t lit_nib = lit_len < 15 ? lit_len : 15;
    // match_len == 0 marks the terminal literal-only sequence.
    const uint64_t match_code = match_len == 0 ? 0 : match_len - kLzMinMatch;
    const uint64_t match_nib = match_code < 15 ? match_code : 15;
    w.PutU8(static_cast<uint8_t>((lit_nib << 4) | match_nib));
    if (lit_nib == 15) PutVarint(&w, lit_len - 15);
    w.PutBytes(data + lit_start, lit_len);
    if (match_len == 0) return;
    w.PutU8(static_cast<uint8_t>(offset & 0xFF));
    w.PutU8(static_cast<uint8_t>(offset >> 8));
    if (match_nib == 15) PutVarint(&w, match_code - 15);
  };
  while (n >= kLzMinMatch + 1 && i + kLzMinMatch < n) {
    const uint32_t h = LzHash(data + i);
    const uint32_t cand = table[h];
    table[h] = static_cast<uint32_t>(i);
    if (cand != 0xFFFFFFFFu && i - cand <= kLzMaxOffset &&
        std::memcmp(data + cand, data + i, kLzMinMatch) == 0) {
      size_t len = kLzMinMatch;
      while (i + len < n && data[cand + len] == data[i + len]) ++len;
      emit(i, len, i - cand);
      i += len;
      lit_start = i;
    } else {
      ++i;
    }
  }
  lit_start = std::min(lit_start, n);
  // Terminal sequence: remaining literals, no match.
  {
    const size_t lit_len = n - lit_start;
    const uint64_t lit_nib = lit_len < 15 ? lit_len : 15;
    w.PutU8(static_cast<uint8_t>(lit_nib << 4));
    if (lit_nib == 15) PutVarint(&w, lit_len - 15);
    w.PutBytes(data + lit_start, lit_len);
  }
  out->append(w.buffer());
}

namespace {

// One walk over an LZ sequence stream. The checking walk (kCopy false)
// validates every sequence — input bounds, offsets, the decoded length — and
// writes nothing; the copying walk then trusts the stream and fills `out`,
// which is already raw_len bytes. So a damaged length never sizes an
// allocation the stream does not fill.
template <bool kCopy>
Status LzWalk(std::string_view in, size_t raw_len, uint8_t* out) {
  const uint8_t* p = Bytes(in);
  const uint8_t* const end = p + in.size();
  size_t pos = 0;
  Status error;
  while (pos < raw_len) {
    if (p == end) return Status::OutOfRange("serialized buffer truncated");
    const uint8_t token = *p++;
    // Extension lengths larger than raw_len are overruns; rejecting them
    // first keeps the sums below from wrapping.
    uint64_t lit_len = token >> 4;
    uint64_t ext = 0;
    if (lit_len == 15) {
      if (!ReadVarint(&p, end, &ext, &error)) return error;
      lit_len = ext > raw_len ? UINT64_MAX : lit_len + ext;
    }
    if (lit_len > raw_len - pos) {
      return Status::OutOfRange("LZ literals overrun decoded length");
    }
    if (lit_len > static_cast<size_t>(end - p)) {
      return Status::OutOfRange("serialized buffer truncated");
    }
    if (kCopy && lit_len > 0) std::memcpy(out + pos, p, lit_len);
    p += lit_len;
    pos += lit_len;
    if (pos == raw_len) break;  // Terminal sequence.
    if (end - p < 2) return Status::OutOfRange("serialized buffer truncated");
    const size_t offset = static_cast<size_t>(p[0]) |
                          (static_cast<size_t>(p[1]) << 8);
    p += 2;
    uint64_t match_len = token & 0xF;
    if (match_len == 15) {
      if (!ReadVarint(&p, end, &ext, &error)) return error;
      match_len = ext > raw_len ? UINT64_MAX - kLzMinMatch : match_len + ext;
    }
    match_len += kLzMinMatch;
    if (offset == 0 || offset > pos) {
      return Status::OutOfRange("LZ match offset before stream start");
    }
    if (match_len > raw_len - pos) {
      return Status::OutOfRange("LZ match overruns decoded length");
    }
    if (kCopy) {
      uint8_t* dst = out + pos;
      const uint8_t* src = dst - offset;
      if (offset >= match_len) {
        std::memcpy(dst, src, match_len);
      } else {
        // Overlapping match: the forward byte copy replicates the period.
        for (uint64_t k = 0; k < match_len; ++k) dst[k] = src[k];
      }
    }
    pos += match_len;
  }
  return Status::OK();
}

}  // namespace

Status LzDecode(std::string_view in, size_t raw_len, std::string* out) {
  AQP_RETURN_IF_ERROR(LzWalk<false>(in, raw_len, nullptr));
  const size_t base = out->size();
  out->resize(base + raw_len);
  return LzWalk<true>(in, raw_len,
                      reinterpret_cast<uint8_t*>(out->data()) + base);
}

// --- Chunk encoding --------------------------------------------------------

namespace {

// Canonical §4.1 plain image of rows [begin, end): NULL slots encode as
// zero/empty regardless of the in-memory residue, so encoding is a pure
// function of (values, validity).
std::string PlainImage(const Column& col, size_t begin, size_t end) {
  ByteWriter w;
  switch (col.type()) {
    case DataType::kInt64:
      for (size_t i = begin; i < end; ++i) {
        w.PutI64(col.IsNull(i) ? 0 : col.Int64At(i));
      }
      break;
    case DataType::kDouble:
      for (size_t i = begin; i < end; ++i) {
        w.PutDouble(col.IsNull(i) ? 0.0 : col.DoubleAt(i));
      }
      break;
    case DataType::kBool:
      for (size_t i = begin; i < end; ++i) {
        w.PutU8(col.IsNull(i) ? 0 : (col.BoolAt(i) ? 1 : 0));
      }
      break;
    case DataType::kString:
      for (size_t i = begin; i < end; ++i) {
        if (col.IsNull(i)) {
          PutVarint(&w, 0);
        } else {
          const std::string& s = col.StringAt(i);
          PutVarint(&w, s.size());
          w.PutBytes(s.data(), s.size());
        }
      }
      break;
  }
  return w.Take();
}

// §4.3 delta image (INT64): zigzag varint of the first value then of each
// successive difference.
std::string DeltaImage(const Column& col, size_t begin, size_t end) {
  ByteWriter w;
  int64_t prev = 0;
  for (size_t i = begin; i < end; ++i) {
    const int64_t v = col.IsNull(i) ? 0 : col.Int64At(i);
    // Wrapping subtraction: delta arithmetic is mod 2^64, decode re-adds.
    const uint64_t delta =
        static_cast<uint64_t>(v) - static_cast<uint64_t>(prev);
    PutVarint(&w, ZigZagEncode(static_cast<int64_t>(delta)));
    prev = v;
  }
  return w.Take();
}

// §4.4 dictionary image (STRING): sorted distinct non-null values, then one
// varint rank per row (NULL rows write rank 0 and are masked by validity).
std::string DictImage(const Column& col, size_t begin, size_t end) {
  std::vector<std::string> uniques;
  uniques.reserve(64);
  for (size_t i = begin; i < end; ++i) {
    if (!col.IsNull(i)) uniques.push_back(col.StringAt(i));
  }
  std::sort(uniques.begin(), uniques.end());
  uniques.erase(std::unique(uniques.begin(), uniques.end()), uniques.end());
  ByteWriter w;
  PutVarint(&w, uniques.size());
  for (const std::string& s : uniques) {
    PutVarint(&w, s.size());
    w.PutBytes(s.data(), s.size());
  }
  for (size_t i = begin; i < end; ++i) {
    if (col.IsNull(i)) {
      PutVarint(&w, 0);
    } else {
      const std::string& s = col.StringAt(i);
      const size_t rank =
          std::lower_bound(uniques.begin(), uniques.end(), s) -
          uniques.begin();
      PutVarint(&w, rank);
    }
  }
  return w.Take();
}

// §4.2 as a data codec: byte-RLE over the plain image (fixed-width types).
std::string RleImage(const std::string& plain) {
  ByteWriter w;
  RleEncode(reinterpret_cast<const uint8_t*>(plain.data()), plain.size(), &w);
  return w.Take();
}

// §4.5: varint(raw_len) + LZ stream over the plain image.
std::string BytesImage(const std::string& plain) {
  ByteWriter w;
  PutVarint(&w, plain.size());
  std::string lz;
  LzEncode(reinterpret_cast<const uint8_t*>(plain.data()), plain.size(), &lz);
  w.PutBytes(lz.data(), lz.size());
  return w.Take();
}

bool Eligible(Codec c, DataType type) {
  switch (c) {
    case Codec::kPlain:
    case Codec::kBytes:
      return true;
    case Codec::kRle:
      return type != DataType::kString;
    case Codec::kDelta:
      return type == DataType::kInt64;
    case Codec::kDict:
      return type == DataType::kString;
  }
  return false;
}

}  // namespace

EncodedChunk EncodeChunk(const Column& col, size_t begin, size_t end,
                         CodecChoice choice) {
  const uint32_t rows = static_cast<uint32_t>(end - begin);
  const DataType type = col.type();

  // Validity subblock: present only when the range has NULLs.
  bool has_nulls = false;
  if (col.has_nulls()) {
    for (size_t i = begin; i < end && !has_nulls; ++i) {
      has_nulls = col.IsNull(i);
    }
  }
  ByteWriter validity;
  if (has_nulls) {
    RleEncode(col.validity() + begin, rows, &validity);
  }

  // Candidate data sections. Auto keeps the smallest; ties prefer the lower
  // codec id so the chosen encoding is deterministic (§4.6).
  const std::string plain = PlainImage(col, begin, end);
  std::vector<std::pair<Codec, std::string>> candidates;
  auto want = [&](Codec c) {
    if (!Eligible(c, type)) return false;
    if (choice == CodecChoice::kAuto) return true;
    return static_cast<uint8_t>(choice) == static_cast<uint8_t>(c);
  };
  if (want(Codec::kPlain)) candidates.emplace_back(Codec::kPlain, plain);
  if (want(Codec::kRle)) candidates.emplace_back(Codec::kRle, RleImage(plain));
  if (want(Codec::kDelta)) {
    candidates.emplace_back(Codec::kDelta, DeltaImage(col, begin, end));
  }
  if (want(Codec::kDict)) {
    candidates.emplace_back(Codec::kDict, DictImage(col, begin, end));
  }
  if (want(Codec::kBytes)) {
    candidates.emplace_back(Codec::kBytes, BytesImage(plain));
  }
  if (candidates.empty()) {
    // Forced codec ineligible for this type: fall back to plain (§4.6).
    candidates.emplace_back(Codec::kPlain, plain);
  }
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].second.size() < candidates[best].second.size()) best = i;
  }

  // Assemble payload then the §3.1 header.
  std::string payload = validity.Take();
  payload += candidates[best].second;
  ByteWriter out;
  out.PutU8(static_cast<uint8_t>(candidates[best].first));
  out.PutU8(has_nulls ? 1 : 0);
  out.PutU8(static_cast<uint8_t>(type));
  out.PutU8(0);
  out.PutU32(rows);
  out.PutU64(payload.size());
  out.PutU32(Crc32(payload.data(), payload.size()));
  out.PutBytes(payload.data(), payload.size());

  EncodedChunk chunk;
  chunk.bytes = out.Take();
  chunk.codec = candidates[best].first;
  chunk.raw_bytes = plain.size() + rows;  // Values + validity bytes.
  return chunk;
}

namespace {

// The chunk decoders (§4). Each checks its bounds once per chunk, or once
// per varint byte against `end`, writes into a value vector sized once, and
// hands that vector with the chunk's validity bytes (empty when the chunk
// has no validity subblock) to Column::FromValues, which resets NULL slots
// to the default value whatever the payload holds there.

// Fixed-width plain image (INT64, DOUBLE, BOOL as uint8_t): one memcpy.
template <typename T>
Result<Column> DecodeFixed(std::string_view data, uint32_t rows,
                           std::vector<uint8_t> valid) {
  const size_t bytes = size_t{rows} * sizeof(T);
  if (data.size() < bytes) {
    return Status::OutOfRange("serialized buffer truncated");
  }
  std::vector<T> values(rows);
  if (bytes > 0) std::memcpy(values.data(), data.data(), bytes);
  return Column::FromValues(std::move(values), std::move(valid));
}

Result<Column> DecodePlainStrings(std::string_view data, uint32_t rows,
                                  std::vector<uint8_t> valid) {
  const uint8_t* p = Bytes(data);
  const uint8_t* const end = p + data.size();
  if (data.size() < rows) {  // Every string costs at least its length byte.
    return Status::OutOfRange("serialized buffer truncated");
  }
  std::vector<std::string> values(rows);
  Status error;
  for (uint32_t i = 0; i < rows; ++i) {
    uint64_t len = 0;
    if (!ReadVarint(&p, end, &len, &error)) return error;
    if (len > static_cast<size_t>(end - p)) {
      return Status::OutOfRange("string length overruns chunk payload");
    }
    if (valid.empty() || valid[i]) {
      values[i].assign(reinterpret_cast<const char*>(p), len);
    }
    p += len;
  }
  return Column::FromValues(std::move(values), std::move(valid));
}

// §4.1 plain image of `type` (also the image RLE and LZ decode to).
Result<Column> DecodePlain(std::string_view data, DataType type,
                           uint32_t rows, std::vector<uint8_t> valid) {
  switch (type) {
    case DataType::kInt64:
      return DecodeFixed<int64_t>(data, rows, std::move(valid));
    case DataType::kDouble:
      return DecodeFixed<double>(data, rows, std::move(valid));
    case DataType::kBool:
      return DecodeFixed<uint8_t>(data, rows, std::move(valid));
    case DataType::kString:
      return DecodePlainStrings(data, rows, std::move(valid));
  }
  return Status::Internal("unreachable type dispatch");
}

// §4.3: a running sum of zigzag varint deltas. NULL slots keep the running
// value (the encoder wrote 0 there) until FromValues resets them.
Result<Column> DecodeDelta(std::string_view data, uint32_t rows,
                           std::vector<uint8_t> valid) {
  if (data.size() < rows) {  // Every varint is at least one byte.
    return Status::OutOfRange("serialized buffer truncated");
  }
  std::vector<int64_t> values(rows);
  int64_t* out = values.data();
  uint64_t prev = 0;
  Status error;
  const uint8_t* p = Bytes(data);
  const bool ok = ForEachVarint(
      p, p + data.size(), rows, &error, [&](uint32_t i, uint64_t zz) {
        // Wrapping addition: delta arithmetic is mod 2^64.
        prev += static_cast<uint64_t>(ZigZagDecode(zz));
        out[i] = static_cast<int64_t>(prev);
        return true;
      });
  if (!ok) return error;
  return Column::FromValues(std::move(values), std::move(valid));
}

// §4.4: the sorted dictionary, then one rank per row. A NULL row's rank is
// read but not checked (the encoder writes 0 there).
Result<Column> DecodeDict(std::string_view data, uint32_t rows,
                          std::vector<uint8_t> valid) {
  const uint8_t* p = Bytes(data);
  const uint8_t* const end = p + data.size();
  Status error;
  uint64_t num_unique = 0;
  if (!ReadVarint(&p, end, &num_unique, &error)) return error;
  if (num_unique > static_cast<size_t>(end - p)) {
    return Status::OutOfRange("dictionary size overruns chunk payload");
  }
  std::vector<std::string> uniques(num_unique);
  for (std::string& u : uniques) {
    uint64_t len = 0;
    if (!ReadVarint(&p, end, &len, &error)) return error;
    if (len > static_cast<size_t>(end - p)) {
      return Status::OutOfRange("dictionary entry overruns chunk payload");
    }
    u.assign(reinterpret_cast<const char*>(p), len);
    p += len;
  }
  if (static_cast<size_t>(end - p) < rows) {
    return Status::OutOfRange("serialized buffer truncated");
  }
  std::vector<std::string> values(rows);
  const bool ok =
      ForEachVarint(p, end, rows, &error, [&](uint32_t i, uint64_t rank) {
        if (!valid.empty() && !valid[i]) return true;
        if (rank >= uniques.size()) {
          error = Status::OutOfRange("dictionary rank out of range");
          return false;
        }
        values[i] = uniques[rank];
        return true;
      });
  if (!ok) return error;
  return Column::FromValues(std::move(values), std::move(valid));
}

}  // namespace

Result<Column> DecodeChunk(std::string_view chunk, DataType type,
                           uint32_t expected_rows) {
  ByteReader header(chunk);
  AQP_ASSIGN_OR_RETURN(uint8_t codec_id, header.GetU8());
  AQP_ASSIGN_OR_RETURN(uint8_t has_validity, header.GetU8());
  AQP_ASSIGN_OR_RETURN(uint8_t phys_type, header.GetU8());
  AQP_ASSIGN_OR_RETURN(uint8_t reserved, header.GetU8());
  AQP_ASSIGN_OR_RETURN(uint32_t rows, header.GetU32());
  AQP_ASSIGN_OR_RETURN(uint64_t payload_bytes, header.GetU64());
  AQP_ASSIGN_OR_RETURN(uint32_t crc, header.GetU32());
  if (codec_id > static_cast<uint8_t>(Codec::kBytes)) {
    return Status::InvalidArgument("unknown chunk codec id " +
                                   std::to_string(codec_id));
  }
  if (reserved != 0) {
    return Status::InvalidArgument("nonzero reserved byte in chunk header");
  }
  if (phys_type != static_cast<uint8_t>(type)) {
    return Status::InvalidArgument("chunk physical type does not match schema");
  }
  if (rows != expected_rows) {
    return Status::InvalidArgument("chunk row count does not match footer");
  }
  if (payload_bytes != chunk.size() - kChunkHeaderBytes) {
    return Status::OutOfRange("chunk payload length does not match header");
  }
  const std::string_view payload = chunk.substr(kChunkHeaderBytes);
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Status::InvalidArgument("chunk CRC32 mismatch (corrupt payload)");
  }

  ByteReader r(payload);
  std::vector<uint8_t> valid;  // Empty: no validity subblock, no NULLs.
  if (has_validity) {
    AQP_RETURN_IF_ERROR(RleDecode(&r, rows, &valid));
  }
  const size_t width = type == DataType::kBool ? 1 : 8;

  const Codec codec = static_cast<Codec>(codec_id);
  switch (codec) {
    case Codec::kPlain:
      return DecodePlain(r.rest(), type, rows, std::move(valid));
    case Codec::kRle: {
      if (type == DataType::kString) {
        return Status::InvalidArgument("RLE chunk on a STRING column");
      }
      std::vector<uint8_t> image;
      AQP_RETURN_IF_ERROR(RleDecode(&r, size_t{rows} * width, &image));
      return DecodePlain(
          std::string_view(reinterpret_cast<const char*>(image.data()),
                           image.size()),
          type, rows, std::move(valid));
    }
    case Codec::kDelta:
      if (type != DataType::kInt64) {
        return Status::InvalidArgument("delta chunk on a non-INT64 column");
      }
      return DecodeDelta(r.rest(), rows, std::move(valid));
    case Codec::kDict:
      if (type != DataType::kString) {
        return Status::InvalidArgument("dict chunk on a non-STRING column");
      }
      return DecodeDict(r.rest(), rows, std::move(valid));
    case Codec::kBytes: {
      AQP_ASSIGN_OR_RETURN(uint64_t raw_len, GetVarint(&r));
      // A fixed-width image holds exactly its rows.
      if (type != DataType::kString && raw_len != size_t{rows} * width) {
        return Status::OutOfRange("LZ image length does not match rows");
      }
      std::string image;
      AQP_RETURN_IF_ERROR(LzDecode(r.rest(), raw_len, &image));
      return DecodePlain(image, type, rows, std::move(valid));
    }
  }
  return Status::Internal("unreachable codec dispatch");
}

// --- Zone maps -------------------------------------------------------------

ZoneMap ComputeZoneMap(const Column& col, size_t begin, size_t end) {
  ZoneMap zone;
  bool seen = false;
  bool string_too_long = false;
  for (size_t i = begin; i < end; ++i) {
    if (col.IsNull(i)) {
      ++zone.null_count;
      continue;
    }
    switch (col.type()) {
      case DataType::kInt64: {
        const int64_t v = col.Int64At(i);
        if (!seen || v < zone.min.int64()) zone.min = Value(v);
        if (!seen || v > zone.max.int64()) zone.max = Value(v);
        break;
      }
      case DataType::kDouble: {
        const double v = col.DoubleAt(i);
        if (!seen || v < zone.min.dbl()) zone.min = Value(v);
        if (!seen || v > zone.max.dbl()) zone.max = Value(v);
        break;
      }
      case DataType::kBool: {
        const bool v = col.BoolAt(i);
        if (!seen || (!v && zone.min.boolean())) zone.min = Value(v);
        if (!seen || (v && !zone.max.boolean())) zone.max = Value(v);
        break;
      }
      case DataType::kString: {
        const std::string& v = col.StringAt(i);
        if (v.size() > kZoneMapMaxStringBytes) string_too_long = true;
        if (!seen || v < zone.min.str()) zone.min = Value(v);
        if (!seen || v > zone.max.str()) zone.max = Value(v);
        break;
      }
    }
    seen = true;
  }
  zone.has_bounds = seen && !string_too_long;
  if (!zone.has_bounds) {
    zone.min = Value::Null();
    zone.max = Value::Null();
  }
  return zone;
}

// --- Zone-map value serialization ------------------------------------------

void PutValue(ByteWriter* w, const Value& v) {
  if (v.is_null()) {
    w->PutU8(0);
  } else if (v.is_int64()) {
    w->PutU8(1);
    w->PutI64(v.int64());
  } else if (v.is_double()) {
    w->PutU8(2);
    w->PutDouble(v.dbl());
  } else if (v.is_string()) {
    w->PutU8(3);
    PutVarint(w, v.str().size());
    w->PutBytes(v.str().data(), v.str().size());
  } else {
    w->PutU8(4);
    w->PutU8(v.boolean() ? 1 : 0);
  }
}

Result<Value> GetValue(ByteReader* r) {
  AQP_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  switch (tag) {
    case 0:
      return Value::Null();
    case 1: {
      AQP_ASSIGN_OR_RETURN(int64_t v, r->GetI64());
      return Value(v);
    }
    case 2: {
      AQP_ASSIGN_OR_RETURN(double v, r->GetDouble());
      return Value(v);
    }
    case 3: {
      AQP_ASSIGN_OR_RETURN(uint64_t len, GetVarint(r));
      if (len > r->remaining()) {
        return Status::OutOfRange("serialized string value truncated");
      }
      std::string s(len, '\0');
      AQP_RETURN_IF_ERROR(r->GetBytes(s.data(), len));
      return Value(std::move(s));
    }
    case 4: {
      AQP_ASSIGN_OR_RETURN(uint8_t v, r->GetU8());
      return Value(v != 0);
    }
    default:
      return Status::InvalidArgument("unknown serialized value tag");
  }
}

// --- Whole-table blobs -----------------------------------------------------

void WriteTableBlob(const Table& table, ByteWriter* w, CodecChoice choice) {
  const Schema& schema = table.schema();
  w->PutU32(static_cast<uint32_t>(schema.num_fields()));
  for (size_t f = 0; f < schema.num_fields(); ++f) {
    const Field& field = schema.field(f);
    PutVarint(w, field.name.size());
    w->PutBytes(field.name.data(), field.name.size());
    w->PutU8(static_cast<uint8_t>(field.type));
  }
  w->PutU64(table.num_rows());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    // One chunk run per extent-sized row range, so arbitrarily large tables
    // stay within the u32 chunk row count.
    size_t begin = 0;
    while (begin < table.num_rows() || (table.num_rows() == 0 && begin == 0)) {
      const size_t end =
          std::min<size_t>(begin + kDefaultExtentRows, table.num_rows());
      EncodedChunk chunk = EncodeChunk(table.column(c), begin, end, choice);
      PutVarint(w, chunk.bytes.size());
      w->PutBytes(chunk.bytes.data(), chunk.bytes.size());
      begin = end;
      if (table.num_rows() == 0) break;
    }
  }
}

Result<Table> ReadTableBlob(ByteReader* r) {
  AQP_ASSIGN_OR_RETURN(uint32_t num_fields, r->GetU32());
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (uint32_t f = 0; f < num_fields; ++f) {
    AQP_ASSIGN_OR_RETURN(uint64_t name_len, GetVarint(r));
    if (name_len > r->remaining()) {
      return Status::OutOfRange("field name overruns table blob");
    }
    std::string name(name_len, '\0');
    AQP_RETURN_IF_ERROR(r->GetBytes(name.data(), name_len));
    AQP_ASSIGN_OR_RETURN(uint8_t type, r->GetU8());
    if (type > static_cast<uint8_t>(DataType::kBool)) {
      return Status::InvalidArgument("unknown field type in table blob");
    }
    fields.push_back(Field{std::move(name), static_cast<DataType>(type)});
  }
  AQP_ASSIGN_OR_RETURN(uint64_t num_rows, r->GetU64());
  std::vector<Column> columns;
  columns.reserve(num_fields);
  for (uint32_t c = 0; c < num_fields; ++c) {
    Column col(fields[c].type);
    size_t decoded = 0;
    while (decoded < num_rows || (num_rows == 0 && decoded == 0)) {
      const uint32_t rows = static_cast<uint32_t>(
          std::min<uint64_t>(kDefaultExtentRows, num_rows - decoded));
      AQP_ASSIGN_OR_RETURN(uint64_t chunk_len, GetVarint(r));
      if (chunk_len > r->remaining() || chunk_len < kChunkHeaderBytes) {
        return Status::OutOfRange("chunk overruns table blob");
      }
      std::string chunk(chunk_len, '\0');
      AQP_RETURN_IF_ERROR(r->GetBytes(chunk.data(), chunk_len));
      AQP_ASSIGN_OR_RETURN(Column part,
                           DecodeChunk(chunk, fields[c].type, rows));
      if (decoded == 0 && rows == num_rows) {
        col = std::move(part);
      } else {
        col.AppendRange(part, 0, part.size());
      }
      decoded += rows;
      if (num_rows == 0) break;
    }
    columns.push_back(std::move(col));
  }
  return Table::Make(Schema(std::move(fields)), std::move(columns));
}

}  // namespace extent
}  // namespace aqp
