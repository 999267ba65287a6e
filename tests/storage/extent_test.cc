// Tests for the persistent extent format (docs/STORAGE.md): codec
// primitives, chunk round-trips across every codec and type, writer/reader
// file round-trips (bit-identical, deterministic across flush modes and
// concurrent readers), zone maps, and the §10 corruption paths — a damaged
// file is always rejected, never partially served.

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "gov/fault_injector.h"
#include "gtest/gtest.h"
#include "storage/extent/codec.h"
#include "storage/extent/extent_reader.h"
#include "storage/extent/extent_writer.h"

namespace aqp {
namespace extent {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "aqp_extent_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// A table exercising all four types, NULLs, and codec-friendly shapes:
// sequential ints (delta), low-cardinality strings (dict), runs (rle).
Table MakeMixedTable(size_t rows, uint64_t seed = 7) {
  Schema schema({{"id", DataType::kInt64},
                 {"val", DataType::kDouble},
                 {"cat", DataType::kString},
                 {"flag", DataType::kBool}});
  std::mt19937_64 rng(seed);
  Column id(DataType::kInt64);
  Column val(DataType::kDouble);
  Column cat(DataType::kString);
  Column flag(DataType::kBool);
  const char* cats[] = {"alpha", "beta", "gamma", "delta"};
  for (size_t i = 0; i < rows; ++i) {
    id.AppendInt64(static_cast<int64_t>(i * 3));
    if (i % 17 == 5) {
      val.AppendNull();
    } else {
      val.AppendDouble(static_cast<double>(rng() % 100000) / 16.0);
    }
    if (i % 23 == 11) {
      cat.AppendNull();
    } else {
      cat.AppendString(cats[(i / 50) % 4]);
    }
    flag.AppendBool(i % 2 == 0);
  }
  Result<Table> t = Table::Make(std::move(schema), {std::move(id),
                                                    std::move(val),
                                                    std::move(cat),
                                                    std::move(flag)});
  EXPECT_TRUE(t.ok()) << t.status().message();
  return std::move(t).value();
}

// Bit-identical comparison: same schema, same validity, same values (doubles
// compared by bit pattern).
void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.schema().field(c).type, b.schema().field(c).type);
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    for (size_t i = 0; i < a.num_rows(); ++i) {
      ASSERT_EQ(ca.IsNull(i), cb.IsNull(i)) << "col " << c << " row " << i;
      if (ca.IsNull(i)) continue;
      switch (ca.type()) {
        case DataType::kInt64:
          ASSERT_EQ(ca.Int64At(i), cb.Int64At(i)) << "row " << i;
          break;
        case DataType::kDouble: {
          uint64_t ba, bb;
          double da = ca.DoubleAt(i), db = cb.DoubleAt(i);
          std::memcpy(&ba, &da, sizeof(ba));
          std::memcpy(&bb, &db, sizeof(bb));
          ASSERT_EQ(ba, bb) << "row " << i;
          break;
        }
        case DataType::kString:
          ASSERT_EQ(ca.StringAt(i), cb.StringAt(i)) << "row " << i;
          break;
        case DataType::kBool:
          ASSERT_EQ(ca.BoolAt(i), cb.BoolAt(i)) << "row " << i;
          break;
      }
    }
  }
}

Table ReadWholeFile(const ExtentReader& reader) {
  Table all(reader.schema());
  for (size_t i = 0; i < reader.num_extents(); ++i) {
    Result<Table> ext = reader.ReadExtent(i);
    EXPECT_TRUE(ext.ok()) << ext.status().message();
    Status s = all.Append(ext.value());
    EXPECT_TRUE(s.ok()) << s.message();
  }
  return all;
}

// --- Primitives ------------------------------------------------------------

TEST(VarintTest, RoundTrip) {
  const uint64_t cases[] = {0,    1,    127,  128,   300,
                            1u << 20, (1ull << 35) + 17,
                            std::numeric_limits<uint64_t>::max()};
  ByteWriter w;
  for (uint64_t v : cases) PutVarint(&w, v);
  std::string buf = w.Take();
  ByteReader r(buf);
  for (uint64_t v : cases) {
    Result<uint64_t> got = GetVarint(&r);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), v);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(VarintTest, TruncatedFails) {
  ByteWriter w;
  PutVarint(&w, std::numeric_limits<uint64_t>::max());
  std::string buf = w.Take();
  buf.resize(buf.size() - 1);  // Drop the terminating byte.
  ByteReader r(buf);
  EXPECT_FALSE(GetVarint(&r).ok());
}

TEST(ZigZagTest, RoundTripExtremes) {
  const int64_t cases[] = {0, -1, 1, -2, 1234567,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(RleTest, RunsAndLiterals) {
  std::vector<uint8_t> data;
  for (int i = 0; i < 500; ++i) data.push_back(0x42);       // Long run.
  for (int i = 0; i < 37; ++i) data.push_back(i * 7 % 251); // Literals.
  data.push_back(9);
  data.push_back(9);  // Run of 2: below threshold, stays literal.
  ByteWriter w;
  RleEncode(data.data(), data.size(), &w);
  std::string buf = w.Take();
  EXPECT_LT(buf.size(), data.size());  // The run must compress.
  ByteReader r(buf);
  std::vector<uint8_t> out;
  ASSERT_TRUE(RleDecode(&r, data.size(), &out).ok());
  EXPECT_EQ(out, data);
  EXPECT_TRUE(r.exhausted());
}

TEST(RleTest, EmptyInput) {
  ByteWriter w;
  RleEncode(nullptr, 0, &w);
  std::string buf = w.Take();
  ByteReader r(buf);
  std::vector<uint8_t> out;
  EXPECT_TRUE(RleDecode(&r, 0, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(LzTest, CompressibleRoundTrip) {
  std::string data;
  for (int i = 0; i < 200; ++i) data += "the quick brown fox ";
  std::string enc;
  LzEncode(reinterpret_cast<const uint8_t*>(data.data()), data.size(), &enc);
  EXPECT_LT(enc.size(), data.size() / 4);
  std::string dec;
  ASSERT_TRUE(LzDecode(enc, data.size(), &dec).ok());
  EXPECT_EQ(dec, data);
}

TEST(LzTest, IncompressibleRoundTrip) {
  std::mt19937_64 rng(99);
  std::string data;
  for (int i = 0; i < 4096; ++i) data.push_back(static_cast<char>(rng()));
  std::string enc;
  LzEncode(reinterpret_cast<const uint8_t*>(data.data()), data.size(), &enc);
  std::string dec;
  ASSERT_TRUE(LzDecode(enc, data.size(), &dec).ok());
  EXPECT_EQ(dec, data);
}

TEST(LzTest, EmptyRoundTrip) {
  std::string enc;
  LzEncode(nullptr, 0, &enc);
  std::string dec;
  ASSERT_TRUE(LzDecode(enc, 0, &dec).ok());
  EXPECT_TRUE(dec.empty());
}

TEST(LzTest, MalformedStreamFails) {
  std::string data = "abcdabcdabcdabcdabcdabcdabcdabcd";
  std::string enc;
  LzEncode(reinterpret_cast<const uint8_t*>(data.data()), data.size(), &enc);
  // Claiming a longer raw length than the stream produces must error, not
  // read out of bounds.
  std::string dec;
  EXPECT_FALSE(LzDecode(enc, data.size() + 100, &dec).ok());
  // Truncated stream.
  std::string short_enc = enc.substr(0, enc.size() / 2);
  dec.clear();
  EXPECT_FALSE(LzDecode(short_enc, data.size(), &dec).ok());
}

// What an LZ stream of `literals` then one match (offset, length) decodes
// to: the definition, one byte at a time.
std::string ExpandMatch(std::string literals, size_t offset, size_t length) {
  for (size_t k = 0; k < length; ++k) {
    literals.push_back(literals[literals.size() - offset]);
  }
  return literals;
}

// One §4.5 sequence: `literals` (< 15 bytes) then a match of length >= 4 at
// `offset`; the stream ends when the decoded length is reached.
std::string LzSequence(const std::string& literals, size_t offset,
                       size_t length) {
  const size_t code = length - 4;
  ByteWriter w;
  const size_t nibble = std::min<size_t>(code, 15);
  w.PutU8(static_cast<uint8_t>((literals.size() << 4) | nibble));
  w.PutBytes(literals.data(), literals.size());
  w.PutU8(static_cast<uint8_t>(offset & 0xFF));
  w.PutU8(static_cast<uint8_t>(offset >> 8));
  if (code >= 15) PutVarint(&w, code - 15);
  return w.Take();
}

TEST(LzTest, MatchOffsetsAroundTheMatchLength) {
  struct Case {
    std::string literals;
    size_t offset;
    size_t length;
  };
  const Case cases[] = {
      {"a", 1, 10},           // Offset 1: a run of the last byte.
      {"abcde", 5, 6},        // Offset = length - 1: overlaps by one byte.
      {"abcdef", 6, 6},       // Offset = length: adjacent, no overlap.
      {"abcdefgh", 3, 7},     // Offset inside the literals, overlapping.
      {"abcdefghijk", 11, 4}  // Offset far behind, no overlap.
  };
  for (const Case& c : cases) {
    const std::string want = ExpandMatch(c.literals, c.offset, c.length);
    std::string dec = "prefix";  // Output appends.
    const std::string enc = LzSequence(c.literals, c.offset, c.length);
    ASSERT_TRUE(LzDecode(enc, want.size(), &dec).ok())
        << c.literals << " offset " << c.offset;
    EXPECT_EQ(dec, "prefix" + want) << c.literals << " offset " << c.offset;
  }
}

TEST(LzTest, LongRunsRoundTrip) {
  // A 1020-byte match at offset 1 (varint length extension) by hand...
  const std::string want = ExpandMatch("z", 1, 1019);
  std::string dec;
  ASSERT_TRUE(LzDecode(LzSequence("z", 1, 1019), want.size(), &dec).ok());
  EXPECT_EQ(dec, want);
  // ...and the encoder's own long runs between literals.
  std::string data(100000, 'x');
  data += "a break in the run";
  data += std::string(70000, 'y');
  std::string enc;
  LzEncode(reinterpret_cast<const uint8_t*>(data.data()), data.size(), &enc);
  EXPECT_LT(enc.size(), 200u);
  dec.clear();
  ASSERT_TRUE(LzDecode(enc, data.size(), &dec).ok());
  EXPECT_EQ(dec, data);
}

// --- Chunk encode/decode ---------------------------------------------------

Column MakeTypedColumn(DataType type, size_t rows, bool with_nulls) {
  Column col(type);
  for (size_t i = 0; i < rows; ++i) {
    if (with_nulls && i % 7 == 3) {
      col.AppendNull();
      continue;
    }
    switch (type) {
      case DataType::kInt64:
        col.AppendInt64(static_cast<int64_t>(i) * 1000 - 5000);
        break;
      case DataType::kDouble:
        col.AppendDouble(static_cast<double>(i) * 0.25);
        break;
      case DataType::kString:
        col.AppendString("v" + std::to_string(i % 13));
        break;
      case DataType::kBool:
        col.AppendBool(i % 3 == 0);
        break;
    }
  }
  return col;
}

TEST(ChunkTest, RoundTripAllCodecsAllTypes) {
  const DataType types[] = {DataType::kInt64, DataType::kDouble,
                            DataType::kString, DataType::kBool};
  const CodecChoice choices[] = {CodecChoice::kAuto, CodecChoice::kPlain,
                                 CodecChoice::kRle, CodecChoice::kDelta,
                                 CodecChoice::kDict, CodecChoice::kBytes};
  for (DataType type : types) {
    for (bool with_nulls : {false, true}) {
      Column col = MakeTypedColumn(type, 500, with_nulls);
      for (CodecChoice choice : choices) {
        EncodedChunk chunk = EncodeChunk(col, 0, col.size(), choice);
        Result<Column> back = DecodeChunk(chunk.bytes, type,
                                          static_cast<uint32_t>(col.size()));
        ASSERT_TRUE(back.ok())
            << DataTypeName(type) << " choice=" << static_cast<int>(choice)
            << ": " << back.status().message();
        ASSERT_EQ(back.value().size(), col.size());
        for (size_t i = 0; i < col.size(); ++i) {
          ASSERT_EQ(back.value().IsNull(i), col.IsNull(i));
          if (col.IsNull(i)) continue;
          EXPECT_EQ(back.value().GetValue(i).ToString(),
                    col.GetValue(i).ToString())
              << DataTypeName(type) << " row " << i;
        }
      }
    }
  }
}

TEST(ChunkTest, SubRangeEncode) {
  Column col = MakeTypedColumn(DataType::kInt64, 300, true);
  EncodedChunk chunk = EncodeChunk(col, 100, 250, CodecChoice::kAuto);
  Result<Column> back = DecodeChunk(chunk.bytes, DataType::kInt64, 150);
  ASSERT_TRUE(back.ok()) << back.status().message();
  for (size_t i = 0; i < 150; ++i) {
    ASSERT_EQ(back.value().IsNull(i), col.IsNull(100 + i));
    if (!col.IsNull(100 + i)) {
      EXPECT_EQ(back.value().Int64At(i), col.Int64At(100 + i));
    }
  }
}

// Canonical encoding: decode then re-encode with the same choice is
// byte-identical (NULL slots hold canonical zero/empty payload values).
TEST(ChunkTest, CanonicalReencode) {
  const DataType types[] = {DataType::kInt64, DataType::kDouble,
                            DataType::kString, DataType::kBool};
  for (DataType type : types) {
    Column col = MakeTypedColumn(type, 400, /*with_nulls=*/true);
    EncodedChunk first = EncodeChunk(col, 0, col.size(), CodecChoice::kAuto);
    Result<Column> back = DecodeChunk(first.bytes, type,
                                      static_cast<uint32_t>(col.size()));
    ASSERT_TRUE(back.ok());
    EncodedChunk second =
        EncodeChunk(back.value(), 0, back.value().size(), CodecChoice::kAuto);
    EXPECT_EQ(first.bytes, second.bytes) << DataTypeName(type);
  }
}

TEST(ChunkTest, ForcedIneligibleFallsBackToPlain) {
  // Delta is INT64-only; forcing it on a string column must fall back.
  Column col = MakeTypedColumn(DataType::kString, 100, false);
  EncodedChunk chunk = EncodeChunk(col, 0, col.size(), CodecChoice::kDelta);
  EXPECT_EQ(chunk.codec, Codec::kPlain);
  Result<Column> back = DecodeChunk(chunk.bytes, DataType::kString, 100);
  EXPECT_TRUE(back.ok());
}

TEST(ChunkTest, DictWinsOnLowCardinalityStrings) {
  Column col(DataType::kString);
  for (size_t i = 0; i < 2000; ++i) {
    col.AppendString(i % 2 == 0 ? "yes" : "no");
  }
  EncodedChunk chunk = EncodeChunk(col, 0, col.size(), CodecChoice::kAuto);
  EncodedChunk plain = EncodeChunk(col, 0, col.size(), CodecChoice::kPlain);
  EXPECT_LT(chunk.bytes.size(), plain.bytes.size() / 2);
}

TEST(ChunkTest, DeltaWinsOnSequentialInts) {
  Column col(DataType::kInt64);
  for (size_t i = 0; i < 4096; ++i) {
    col.AppendInt64(1000000 + static_cast<int64_t>(i));
  }
  EncodedChunk chunk = EncodeChunk(col, 0, col.size(), CodecChoice::kAuto);
  EXPECT_EQ(chunk.codec, Codec::kDelta);
  EXPECT_LT(chunk.bytes.size(), 4096 * 2);
}

TEST(ChunkTest, DeltaHandlesExtremeValuesViaWrapping) {
  Column col(DataType::kInt64);
  col.AppendInt64(std::numeric_limits<int64_t>::min());
  col.AppendInt64(std::numeric_limits<int64_t>::max());
  col.AppendInt64(0);
  col.AppendInt64(std::numeric_limits<int64_t>::max());
  EncodedChunk chunk = EncodeChunk(col, 0, col.size(), CodecChoice::kDelta);
  Result<Column> back = DecodeChunk(chunk.bytes, DataType::kInt64, 4);
  ASSERT_TRUE(back.ok()) << back.status().message();
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(back.value().Int64At(i), col.Int64At(i));
  }
}

TEST(ChunkTest, CorruptPayloadDetected) {
  Column col = MakeTypedColumn(DataType::kInt64, 256, true);
  EncodedChunk chunk = EncodeChunk(col, 0, col.size(), CodecChoice::kAuto);
  ASSERT_GT(chunk.bytes.size(), kChunkHeaderBytes);
  // Flip one payload bit — the §7 chunk CRC must catch it.
  std::string bad = chunk.bytes;
  bad[kChunkHeaderBytes + bad.size() / 3] ^= 0x10;
  Result<Column> r = DecodeChunk(bad, DataType::kInt64, 256);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChunkTest, HeaderMismatchesDetected) {
  Column col = MakeTypedColumn(DataType::kInt64, 128, false);
  EncodedChunk chunk = EncodeChunk(col, 0, col.size(), CodecChoice::kPlain);
  // Wrong expected row count.
  EXPECT_FALSE(DecodeChunk(chunk.bytes, DataType::kInt64, 127).ok());
  // Wrong type.
  EXPECT_FALSE(DecodeChunk(chunk.bytes, DataType::kDouble, 128).ok());
  // Truncated chunk.
  EXPECT_FALSE(
      DecodeChunk(std::string_view(chunk.bytes).substr(0, 10), DataType::kInt64, 128)
          .ok());
  // Unknown codec id.
  std::string bad = chunk.bytes;
  bad[0] = 0x7f;
  EXPECT_FALSE(DecodeChunk(bad, DataType::kInt64, 128).ok());
}

// `chunk`'s header over a new payload, with the length and CRC recomputed so
// the decoder itself, not the CRC check, meets the damage.
std::string Rechunk(const std::string& chunk, const std::string& payload) {
  ByteWriter w;
  w.PutBytes(chunk.data(), 8);  // Codec, validity flag, type, reserved, rows.
  w.PutU64(payload.size());
  w.PutU32(Crc32(payload.data(), payload.size()));
  w.PutBytes(payload.data(), payload.size());
  return w.Take();
}

// A damaged chunk either fails with a status or decodes to `rows` values
// whose NULL slots hold the default value; it never reads out of bounds
// (the ASan CI job runs this suite).
void ExpectErrorOrWellFormed(const std::string& chunk, DataType type,
                             uint32_t rows, const std::string& what) {
  Result<Column> r = DecodeChunk(chunk, type, rows);
  if (!r.ok()) return;
  const Column& col = r.value();
  ASSERT_EQ(col.size(), rows) << what;
  size_t nulls = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsNull(i)) continue;
    ++nulls;
    switch (type) {
      case DataType::kInt64:
        ASSERT_EQ(col.Int64At(i), 0) << what;
        break;
      case DataType::kDouble:
        ASSERT_EQ(col.DoubleAt(i), 0.0) << what;
        break;
      case DataType::kString:
        ASSERT_TRUE(col.StringAt(i).empty()) << what;
        break;
      case DataType::kBool:
        ASSERT_FALSE(col.BoolAt(i)) << what;
        break;
    }
  }
  ASSERT_EQ(col.null_count(), nulls) << what;
}

TEST(ChunkTest, DamagedPayloadsFailOrDecodeWellFormed) {
  const DataType types[] = {DataType::kInt64, DataType::kDouble,
                            DataType::kString, DataType::kBool};
  const CodecChoice choices[] = {CodecChoice::kPlain, CodecChoice::kRle,
                                 CodecChoice::kDelta, CodecChoice::kDict,
                                 CodecChoice::kBytes};
  constexpr uint32_t kRows = 100;
  for (DataType type : types) {
    for (bool with_nulls : {false, true}) {
      const Column col = MakeTypedColumn(type, kRows, with_nulls);
      for (CodecChoice choice : choices) {
        const EncodedChunk chunk = EncodeChunk(col, 0, kRows, choice);
        const std::string payload = chunk.bytes.substr(kChunkHeaderBytes);
        const std::string tag = std::string(DataTypeName(type)) + " codec " +
                                std::string(CodecName(chunk.codec)) +
                                (with_nulls ? " nulls" : "");
        for (size_t len = 0; len < payload.size(); ++len) {
          ExpectErrorOrWellFormed(Rechunk(chunk.bytes, payload.substr(0, len)),
                                  type, kRows,
                                  tag + " truncated to " + std::to_string(len));
        }
        for (size_t at = 0; at < payload.size(); ++at) {
          for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
            std::string bad = payload;
            bad[at] = static_cast<char>(bad[at] ^ flip);
            ExpectErrorOrWellFormed(
                Rechunk(chunk.bytes, bad), type, kRows,
                tag + " byte " + std::to_string(at) + " ^ " +
                    std::to_string(flip));
          }
        }
      }
    }
  }
}

// A hand-built chunk: header for `codec` over INT64 rows, the RLE validity
// subblock, then `data`.
std::string ForgedInt64Chunk(Codec codec, const std::vector<uint8_t>& valid,
                             const std::string& data) {
  ByteWriter payload;
  RleEncode(valid.data(), valid.size(), &payload);
  payload.PutBytes(data.data(), data.size());
  const std::string p = payload.Take();
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(codec));
  w.PutU8(1);
  w.PutU8(static_cast<uint8_t>(DataType::kInt64));
  w.PutU8(0);
  w.PutU32(static_cast<uint32_t>(valid.size()));
  w.PutU64(p.size());
  w.PutU32(Crc32(p.data(), p.size()));
  w.PutBytes(p.data(), p.size());
  return w.Take();
}

TEST(ChunkTest, ForgedValuesUnderNullSlotsDecodeAsNull) {
  // The encoder writes 0 under a NULL slot; a forged payload writes 77 and
  // -3 there. Both decoders must still yield NULL holding the default value.
  const std::vector<uint8_t> valid = {1, 0, 1, 0, 2};  // Nonzero = valid.
  const std::vector<int64_t> values = {5, 77, 9, -3, 11};
  ByteWriter plain;
  ByteWriter delta;
  int64_t prev = 0;
  for (int64_t v : values) {
    plain.PutI64(v);
    PutVarint(&delta, ZigZagEncode(v - prev));
    prev = v;
  }
  for (const auto& [codec, data] :
       {std::pair{Codec::kPlain, plain.Take()},
        std::pair{Codec::kDelta, delta.Take()}}) {
    Result<Column> r = DecodeChunk(ForgedInt64Chunk(codec, valid, data),
                                   DataType::kInt64, 5);
    ASSERT_TRUE(r.ok()) << CodecName(codec) << ": " << r.status().message();
    const Column& col = r.value();
    EXPECT_EQ(col.null_count(), 2u) << CodecName(codec);
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(col.IsNull(i), valid[i] == 0) << CodecName(codec) << " " << i;
      EXPECT_EQ(col.validity()[i], valid[i] != 0 ? 1 : 0);
      EXPECT_EQ(col.Int64At(i), valid[i] != 0 ? values[i] : 0)
          << CodecName(codec) << " row " << i;
    }
  }
}

// --- Zone maps -------------------------------------------------------------

TEST(ZoneMapTest, NumericBoundsAndNulls) {
  Column col(DataType::kInt64);
  col.AppendInt64(5);
  col.AppendNull();
  col.AppendInt64(-3);
  col.AppendInt64(12);
  ZoneMap z = ComputeZoneMap(col, 0, col.size());
  EXPECT_EQ(z.null_count, 1u);
  ASSERT_TRUE(z.has_bounds);
  EXPECT_EQ(z.min.int64(), -3);
  EXPECT_EQ(z.max.int64(), 12);
}

TEST(ZoneMapTest, AllNullHasNoBounds) {
  Column col(DataType::kDouble);
  col.AppendNull();
  col.AppendNull();
  ZoneMap z = ComputeZoneMap(col, 0, col.size());
  EXPECT_EQ(z.null_count, 2u);
  EXPECT_FALSE(z.has_bounds);
}

TEST(ZoneMapTest, LongStringsSuppressBounds) {
  Column col(DataType::kString);
  col.AppendString("short");
  col.AppendString(std::string(kZoneMapMaxStringBytes + 1, 'z'));
  ZoneMap z = ComputeZoneMap(col, 0, col.size());
  // §5: no truncated prefixes in v1 — bounds are exact or absent.
  EXPECT_FALSE(z.has_bounds);

  Column ok_col(DataType::kString);
  ok_col.AppendString("beta");
  ok_col.AppendString("alpha");
  ZoneMap z2 = ComputeZoneMap(ok_col, 0, ok_col.size());
  ASSERT_TRUE(z2.has_bounds);
  EXPECT_EQ(z2.min.str(), "alpha");
  EXPECT_EQ(z2.max.str(), "beta");
}

TEST(ZoneMapValueTest, SerializationRoundTrip) {
  const Value values[] = {Value::Null(), Value(int64_t{-42}), Value(3.75),
                          Value(std::string("hello")), Value(true)};
  ByteWriter w;
  for (const Value& v : values) PutValue(&w, v);
  std::string buf = w.Take();
  ByteReader r(buf);
  for (const Value& v : values) {
    Result<Value> got = GetValue(&r);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().ToString(), v.ToString());
  }
  EXPECT_TRUE(r.exhausted());
}

// --- Table blobs (synopsis sidecar building block, §8.2) -------------------

TEST(TableBlobTest, RoundTrip) {
  Table t = MakeMixedTable(777);
  ByteWriter w;
  WriteTableBlob(t, &w);
  std::string buf = w.Take();
  ByteReader r(buf);
  Result<Table> back = ReadTableBlob(&r);
  ASSERT_TRUE(back.ok()) << back.status().message();
  ExpectTablesIdentical(t, back.value());
  EXPECT_TRUE(r.exhausted());
}

TEST(TableBlobTest, MultiChunkRoundTripWithNulls) {
  // More rows than one chunk holds: each column is read back as two chunk
  // runs and appended.
  Table t = MakeMixedTable(kDefaultExtentRows + 777);
  ASSERT_GT(t.column(1).null_count(), 0u);
  ByteWriter w;
  WriteTableBlob(t, &w);
  std::string buf = w.Take();
  ByteReader r(buf);
  Result<Table> back = ReadTableBlob(&r);
  ASSERT_TRUE(back.ok()) << back.status().message();
  ExpectTablesIdentical(t, back.value());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(back.value().column(c).null_count(), t.column(c).null_count());
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(TableBlobTest, EmptyTableRoundTrip) {
  Table t(Schema({{"x", DataType::kInt64}, {"s", DataType::kString}}));
  ByteWriter w;
  WriteTableBlob(t, &w);
  std::string buf = w.Take();
  ByteReader r(buf);
  Result<Table> back = ReadTableBlob(&r);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back.value().num_rows(), 0u);
  EXPECT_EQ(back.value().num_columns(), 2u);
}

// --- Writer / reader file round-trips --------------------------------------

ExtentWriter::Options SmallExtents(bool background) {
  ExtentWriter::Options o;
  o.extent_rows = 1024;  // Multi-extent files from small test tables.
  o.background_flush = background;
  return o;
}

TEST(ExtentFileTest, RoundTripMultiExtent) {
  for (bool background : {false, true}) {
    const std::string path =
        TempPath(background ? "rt_bg.aqpx" : "rt_inline.aqpx");
    Table t = MakeMixedTable(3600);  // 3 full extents + ragged tail of 528.
    Result<uint64_t> size =
        WriteTableToExtents(path, t, SmallExtents(background));
    ASSERT_TRUE(size.ok()) << size.status().message();
    EXPECT_GT(size.value(), 0u);

    Result<std::shared_ptr<const ExtentReader>> reader = ExtentReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    const ExtentReader& r = *reader.value();
    EXPECT_EQ(r.num_rows(), 3600u);
    EXPECT_EQ(r.num_extents(), 4u);
    EXPECT_EQ(r.extent_target_rows(), 1024u);
    EXPECT_EQ(r.extent(3).row_count, 3600u - 3 * 1024u);
    EXPECT_EQ(r.file_bytes(), size.value());
    // Row ranges must tile the table in order.
    uint64_t row = 0;
    for (size_t i = 0; i < r.num_extents(); ++i) {
      EXPECT_EQ(r.extent(i).row_start, row);
      row += r.extent(i).row_count;
    }
    ExpectTablesIdentical(t, ReadWholeFile(r));
    EXPECT_TRUE(r.ValidateAll().ok());
    std::remove(path.c_str());
  }
}

TEST(ExtentFileTest, RoundTripEveryForcedCodec) {
  const CodecChoice choices[] = {CodecChoice::kPlain, CodecChoice::kRle,
                                 CodecChoice::kDelta, CodecChoice::kDict,
                                 CodecChoice::kBytes};
  Table t = MakeMixedTable(2100);
  for (CodecChoice choice : choices) {
    const std::string path =
        TempPath("codec_" + std::to_string(static_cast<int>(choice)) + ".aqpx");
    ExtentWriter::Options o = SmallExtents(false);
    o.codec = choice;
    ASSERT_TRUE(WriteTableToExtents(path, t, o).ok());
    Result<std::shared_ptr<const ExtentReader>> reader = ExtentReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    ExpectTablesIdentical(t, ReadWholeFile(*reader.value()));
    std::remove(path.c_str());
  }
}

// The write path is deterministic: same table + options => byte-identical
// files, whether flushed inline or on the background thread. This is the
// bit-level counterpart of the engine's thread-grid determinism contract.
TEST(ExtentFileTest, DeterministicBytesAcrossFlushModes) {
  Table t = MakeMixedTable(3000);
  const std::string p1 = TempPath("det_a.aqpx");
  const std::string p2 = TempPath("det_b.aqpx");
  const std::string p3 = TempPath("det_c.aqpx");
  ASSERT_TRUE(WriteTableToExtents(p1, t, SmallExtents(false)).ok());
  ASSERT_TRUE(WriteTableToExtents(p2, t, SmallExtents(true)).ok());
  ASSERT_TRUE(WriteTableToExtents(p3, t, SmallExtents(true)).ok());
  const std::string b1 = ReadFileBytes(p1);
  EXPECT_EQ(b1, ReadFileBytes(p2));
  EXPECT_EQ(b1, ReadFileBytes(p3));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
  std::remove(p3.c_str());
}

// Concurrent readers on the 1/2/4/8 thread grid decode the same bytes: the
// reader is immutable after Open and uses positional reads only.
TEST(ExtentFileTest, ConcurrentReadsMatchSerial) {
  const std::string path = TempPath("conc.aqpx");
  Table t = MakeMixedTable(4096);
  ASSERT_TRUE(WriteTableToExtents(path, t, SmallExtents(true)).ok());
  Result<std::shared_ptr<const ExtentReader>> reader = ExtentReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::shared_ptr<const ExtentReader> r = reader.value();
  Table serial = ReadWholeFile(*r);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::thread> pool;
    std::vector<Status> statuses(threads, Status::OK());
    for (size_t w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        for (size_t i = 0; i < r->num_extents(); ++i) {
          Result<Table> ext = r->ReadExtent(i);
          if (!ext.ok()) {
            statuses[w] = ext.status();
            return;
          }
          Table expect =
              serial.Slice(r->extent(i).row_start, r->extent(i).row_count);
          ExpectTablesIdentical(expect, ext.value());
        }
      });
    }
    for (std::thread& th : pool) th.join();
    for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s.message();
  }
  std::remove(path.c_str());
}

TEST(ExtentFileTest, ReadExtentColumnsProjects) {
  const std::string path = TempPath("projected.aqpx");
  Table t = MakeMixedTable(1500);
  ASSERT_TRUE(WriteTableToExtents(path, t, SmallExtents(false)).ok());
  Result<std::shared_ptr<const ExtentReader>> reader = ExtentReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const ExtentReader& r = *reader.value();
  ASSERT_GE(r.schema().num_fields(), 3u);
  // Non-adjacent and out-of-order columns: fields follow the request.
  const std::vector<size_t> cols = {2, 0};
  for (size_t e = 0; e < r.num_extents(); ++e) {
    Result<Table> all = r.ReadExtent(e);
    Result<Table> some = r.ReadExtentColumns(e, cols);
    ASSERT_TRUE(all.ok() && some.ok()) << some.status().message();
    ASSERT_EQ(some.value().num_columns(), cols.size());
    ASSERT_EQ(some.value().num_rows(), all.value().num_rows());
    for (size_t k = 0; k < cols.size(); ++k) {
      EXPECT_EQ(some.value().schema().field(k), r.schema().field(cols[k]));
      for (size_t i = 0; i < some.value().num_rows(); ++i) {
        EXPECT_TRUE(some.value().column(k).SlotEquals(
            i, all.value().column(cols[k]), i));
      }
    }
  }
  EXPECT_EQ(r.ReadExtentColumns(0, {r.schema().num_fields()}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(r.ReadExtentColumns(r.num_extents(), {0}).status().code(),
            StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(ExtentFileTest, ReadColumnChunkMatchesReadExtent) {
  const std::string path = TempPath("colchunk.aqpx");
  Table t = MakeMixedTable(1500);
  ASSERT_TRUE(WriteTableToExtents(path, t, SmallExtents(false)).ok());
  Result<std::shared_ptr<const ExtentReader>> reader = ExtentReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const ExtentReader& r = *reader.value();
  for (size_t e = 0; e < r.num_extents(); ++e) {
    Result<Table> ext = r.ReadExtent(e);
    ASSERT_TRUE(ext.ok());
    for (size_t c = 0; c < r.schema().num_fields(); ++c) {
      Result<Column> col = r.ReadColumnChunk(e, c);
      ASSERT_TRUE(col.ok()) << col.status().message();
      ASSERT_EQ(col.value().size(), ext.value().num_rows());
      for (size_t i = 0; i < col.value().size(); ++i) {
        EXPECT_EQ(col.value().GetValue(i).ToString(),
                  ext.value().column(c).GetValue(i).ToString());
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ExtentFileTest, ZoneMapsDescribeExtents) {
  const std::string path = TempPath("zones.aqpx");
  Table t = MakeMixedTable(2048);
  ASSERT_TRUE(WriteTableToExtents(path, t, SmallExtents(false)).ok());
  Result<std::shared_ptr<const ExtentReader>> reader = ExtentReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const ExtentReader& r = *reader.value();
  // Column 0 is id = 3*i: extent 0 covers [0, 3069], extent 1 [3072, 6141].
  ASSERT_EQ(r.num_extents(), 2u);
  const ZoneMap& z0 = r.extent(0).chunks[0].zone;
  const ZoneMap& z1 = r.extent(1).chunks[0].zone;
  ASSERT_TRUE(z0.has_bounds);
  ASSERT_TRUE(z1.has_bounds);
  EXPECT_EQ(z0.min.int64(), 0);
  EXPECT_EQ(z0.max.int64(), 3069);
  EXPECT_EQ(z1.min.int64(), 3072);
  EXPECT_EQ(z1.max.int64(), 6141);
  // Column 1 (val) has NULLs every 17 rows.
  EXPECT_GT(r.extent(0).chunks[1].zone.null_count, 0u);
  std::remove(path.c_str());
}

TEST(ExtentFileTest, EmptyTable) {
  const std::string path = TempPath("empty.aqpx");
  Table t(Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(WriteTableToExtents(path, t, SmallExtents(false)).ok());
  Result<std::shared_ptr<const ExtentReader>> reader = ExtentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_EQ(reader.value()->num_rows(), 0u);
  EXPECT_EQ(reader.value()->num_extents(), 0u);
  EXPECT_TRUE(reader.value()->ValidateAll().ok());
  std::remove(path.c_str());
}

TEST(ExtentWriterTest, RejectsBadOptionsAndMisuse) {
  ExtentWriter::Options bad;
  bad.extent_rows = 1000;  // Not a multiple of 1024.
  Result<std::unique_ptr<ExtentWriter>> w = ExtentWriter::Create(
      TempPath("bad.aqpx"), Schema({{"x", DataType::kInt64}}), bad);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument);

  Result<std::unique_ptr<ExtentWriter>> no_cols =
      ExtentWriter::Create(TempPath("bad2.aqpx"),
                           Schema(std::vector<Field>{}), {});
  EXPECT_FALSE(no_cols.ok());

  const std::string path = TempPath("misuse.aqpx");
  Result<std::unique_ptr<ExtentWriter>> ok = ExtentWriter::Create(
      path, Schema({{"x", DataType::kInt64}}), SmallExtents(false));
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(ok.value()->Finish().ok());
  Table t(Schema({{"x", DataType::kInt64}}));
  Status append_after = ok.value()->Append(t);
  EXPECT_EQ(append_after.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(ok.value()->Finish().ok());  // Idempotent.
  std::remove(path.c_str());
}

// --- Corruption paths (§10) ------------------------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corrupt.aqpx");
    Table t = MakeMixedTable(2048);
    ASSERT_TRUE(WriteTableToExtents(path_, t, SmallExtents(false)).ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), kFileHeaderBytes + kTrailerBytes);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Writes a mutated copy and returns Open's result.
  Status OpenMutated(const std::string& mutated) {
    WriteFileBytes(path_, mutated);
    Result<std::shared_ptr<const ExtentReader>> r = ExtentReader::Open(path_);
    return r.ok() ? Status::OK() : r.status();
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(CorruptionTest, TruncatedFileRejectedAtOpen) {
  // A torn write that lost the footer+trailer (§10): rejected before any
  // data is served.
  std::string torn = bytes_.substr(0, bytes_.size() - kTrailerBytes - 5);
  Status s = OpenMutated(torn);
  ASSERT_FALSE(s.ok());
  // And a file too short to even hold header + trailer.
  EXPECT_FALSE(OpenMutated("AQPX").ok());
}

TEST_F(CorruptionTest, BadHeaderMagicRejected) {
  std::string bad = bytes_;
  bad[0] = 'Z';
  Status s = OpenMutated(bad);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(CorruptionTest, VersionSkewIsFailedPrecondition) {
  std::string bad = bytes_;
  bad[4] = 0x63;  // Format version 99: §9 — reject, don't guess.
  Status s = OpenMutated(bad);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(CorruptionTest, BadTrailerMagicRejected) {
  std::string bad = bytes_;
  bad[bad.size() - 1] ^= 0xff;
  EXPECT_FALSE(OpenMutated(bad).ok());
}

TEST_F(CorruptionTest, FooterCrcMismatchRejected) {
  // Flip a byte inside the footer (between the last extent and the trailer).
  std::string bad = bytes_;
  bad[bad.size() - kTrailerBytes - 3] ^= 0x01;
  Status s = OpenMutated(bad);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(CorruptionTest, BitFlippedExtentFailsReadNotOpen) {
  // Damage in the data region: Open (which only parses the footer) still
  // succeeds; the chunk CRC catches it at read time and ValidateAll flags it.
  std::string bad = bytes_;
  bad[kFileHeaderBytes + kChunkHeaderBytes + 7] ^= 0x04;
  WriteFileBytes(path_, bad);
  Result<std::shared_ptr<const ExtentReader>> reader = ExtentReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  Result<Table> ext = reader.value()->ReadExtent(0);
  ASSERT_FALSE(ext.ok());
  EXPECT_EQ(ext.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ext.status().message().find("extent 0"), std::string::npos)
      << ext.status().message();
  EXPECT_FALSE(reader.value()->ValidateAll().ok());
  // Later, undamaged extents still read fine (corruption is contained).
  EXPECT_TRUE(reader.value()->ReadExtent(1).ok());
}

TEST_F(CorruptionTest, MissingFileIsNotFoundish) {
  Result<std::shared_ptr<const ExtentReader>> r =
      ExtentReader::Open(TempPath("does_not_exist.aqpx"));
  EXPECT_FALSE(r.ok());
}

// --- Fault-injection sites -------------------------------------------------

TEST(ExtentFaultTest, WriteSiteFailsWriterAndLeavesNoFile) {
  const std::string path = TempPath("fault_write.aqpx");
  Table t = MakeMixedTable(2048);
  {
    gov::ScopedFaultInjection fi(11, 1.0, {"extent.write"});
    Result<uint64_t> r = WriteTableToExtents(path, t, SmallExtents(false));
    ASSERT_FALSE(r.ok());
    // The atomic tmp+rename path must not leave the destination behind.
    EXPECT_FALSE(ExtentReader::Open(path).ok());
  }
  // Injector disarmed: the same write now succeeds.
  EXPECT_TRUE(WriteTableToExtents(path, t, SmallExtents(false)).ok());
  std::remove(path.c_str());
}

TEST(ExtentFaultTest, ReadSiteFailsReadsButNotOpen) {
  const std::string path = TempPath("fault_read.aqpx");
  Table t = MakeMixedTable(2048);
  ASSERT_TRUE(WriteTableToExtents(path, t, SmallExtents(false)).ok());
  {
    gov::ScopedFaultInjection fi(12, 1.0, {"extent.read"});
    Result<std::shared_ptr<const ExtentReader>> reader =
        ExtentReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    EXPECT_FALSE(reader.value()->ReadExtent(0).ok());
    // The reader object survives an injected read failure; after disarm the
    // same extent reads cleanly (fd still valid, no sticky error).
    gov::FaultInjector::Global().Disarm();
    EXPECT_TRUE(reader.value()->ReadExtent(0).ok());
  }
  std::remove(path.c_str());
}

// Partial-probability chaos: writes either fail cleanly or produce a fully
// valid file — never a readable-but-wrong one.
TEST(ExtentFaultTest, ChaosWritesAreAllOrNothing) {
  Table t = MakeMixedTable(2048);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string path =
        TempPath("chaos_" + std::to_string(seed) + ".aqpx");
    bool wrote_ok;
    {
      gov::ScopedFaultInjection fi(seed, 0.4, {"extent.write"});
      wrote_ok = WriteTableToExtents(path, t, SmallExtents(false)).ok();
    }
    Result<std::shared_ptr<const ExtentReader>> reader =
        ExtentReader::Open(path);
    if (wrote_ok) {
      ASSERT_TRUE(reader.ok()) << reader.status().message();
      ExpectTablesIdentical(t, ReadWholeFile(*reader.value()));
    } else {
      EXPECT_FALSE(reader.ok());
    }
    std::remove(path.c_str());
  }
}

// --- Env-derived options ---------------------------------------------------

TEST(OptionsTest, FromEnvParsesAndValidates) {
  ::setenv("AQP_EXTENT_ROWS", "2048", 1);
  ::setenv("AQP_EXTENT_CODEC", "dict", 1);
  ::setenv("AQP_EXTENT_FLUSH_BUFFER", "1048576", 1);
  ::setenv("AQP_EXTENT_READ_BUFFER", "65536", 1);
  ExtentWriter::Options w = ExtentWriter::Options::FromEnv();
  EXPECT_EQ(w.extent_rows, 2048u);
  EXPECT_EQ(w.codec, CodecChoice::kDict);
  EXPECT_EQ(w.flush_queue_bytes, 1048576u);
  ExtentReader::Options r = ExtentReader::Options::FromEnv();
  EXPECT_EQ(r.read_buffer_bytes, 65536u);

  ::setenv("AQP_EXTENT_ROWS", "777", 1);  // Not a multiple of 1024.
  EXPECT_EQ(ExtentWriter::Options::FromEnv().extent_rows, kDefaultExtentRows);
  ::setenv("AQP_EXTENT_CODEC", "bogus", 1);
  EXPECT_EQ(ExtentWriter::Options::FromEnv().codec, CodecChoice::kAuto);

  ::unsetenv("AQP_EXTENT_ROWS");
  ::unsetenv("AQP_EXTENT_CODEC");
  ::unsetenv("AQP_EXTENT_FLUSH_BUFFER");
  ::unsetenv("AQP_EXTENT_READ_BUFFER");
}

}  // namespace
}  // namespace extent
}  // namespace aqp
