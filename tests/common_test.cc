#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "common/scan.h"
#include "common/status.h"

namespace gpm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::DeviceOutOfMemory("16 bytes short");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kDeviceOutOfMemory);
  EXPECT_EQ(s.message(), "16 bytes short");
  EXPECT_EQ(s.ToString(), "DEVICE_OUT_OF_MEMORY: 16 bytes short");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (ErrorCode c :
       {ErrorCode::kOk, ErrorCode::kDeviceOutOfMemory,
        ErrorCode::kHostOutOfMemory, ErrorCode::kInvalidArgument,
        ErrorCode::kNotFound, ErrorCode::kFailedPrecondition,
        ErrorCode::kUnimplemented, ErrorCode::kInternal}) {
    EXPECT_STRNE(ErrorCodeName(c), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Mix64Test, InjectiveOnSmallRange) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) {
    seen.insert(Mix64(i));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(ScanTest, ExclusiveScanBasic) {
  std::vector<int> in{3, 1, 4, 1, 5};
  std::vector<int> out;
  int total = ExclusiveScan(in, &out);
  EXPECT_EQ(total, 14);
  EXPECT_EQ(out, (std::vector<int>{0, 3, 4, 8, 9}));
}

TEST(ScanTest, ExclusiveScanEmpty) {
  std::vector<int> in, out;
  EXPECT_EQ(ExclusiveScan(in, &out), 0);
  EXPECT_TRUE(out.empty());
}

TEST(ScanTest, InPlaceMatchesOutOfPlace) {
  std::vector<uint64_t> v{2, 7, 1, 8, 2, 8};
  std::vector<uint64_t> expected;
  ExclusiveScan(v, &expected);
  uint64_t total = ExclusiveScanInPlace(&v);
  EXPECT_EQ(total, 28u);
  EXPECT_EQ(v, expected);
}

TEST(ScanTest, InclusiveScan) {
  std::vector<int> in{1, 2, 3};
  std::vector<int> out;
  InclusiveScan(in, &out);
  EXPECT_EQ(out, (std::vector<int>{1, 3, 6}));
}

// JsonWriter as it was before it wrote through the stream buffer:
// operator<< for everything, snprintf("%.17g") for doubles and
// per-character escaping. The tests below hold the writer to it byte for
// byte.
class ReferenceJsonWriter {
 public:
  explicit ReferenceJsonWriter(std::ostream& os, int indent_width = 2)
      : os_(os), indent_width_(indent_width) {}

  ReferenceJsonWriter(const ReferenceJsonWriter&) = delete;
  ReferenceJsonWriter& operator=(const ReferenceJsonWriter&) = delete;

  ReferenceJsonWriter& BeginObject() {
    Open('{');
    return *this;
  }
  ReferenceJsonWriter& EndObject() {
    Close('}');
    return *this;
  }
  ReferenceJsonWriter& BeginArray() {
    Open('[');
    return *this;
  }
  ReferenceJsonWriter& EndArray() {
    Close(']');
    return *this;
  }

  ReferenceJsonWriter& Key(std::string_view key) {
    Separate();
    WriteString(key);
    os_ << ": ";
    pending_value_ = true;
    return *this;
  }

  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  ReferenceJsonWriter& Value(T v) {
    Separate();
    os_ << +v;
    return *this;
  }

  ReferenceJsonWriter& Value(double v) {
    Separate();
    if (!std::isfinite(v)) v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os_ << buf;
    return *this;
  }

  ReferenceJsonWriter& Value(bool v) {
    Separate();
    os_ << (v ? "true" : "false");
    return *this;
  }

  ReferenceJsonWriter& Value(std::string_view v) {
    Separate();
    WriteString(v);
    return *this;
  }
  ReferenceJsonWriter& Value(const char* v) {
    return Value(std::string_view(v));
  }

 private:
  struct Level {
    bool first = true;
  };

  void Open(char c) {
    Separate();
    os_ << c;
    levels_.push_back({});
  }

  void Close(char c) {
    bool empty = levels_.back().first;
    levels_.pop_back();
    if (!empty) {
      os_ << '\n';
      Indent(levels_.size());
    }
    os_ << c;
  }

  // Positions the stream for the next element: nothing after a Key, a
  // comma + newline + indent between siblings.
  void Separate() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (levels_.empty()) return;
    if (!levels_.back().first) os_ << ',';
    levels_.back().first = false;
    os_ << '\n';
    Indent(levels_.size());
  }

  void Indent(std::size_t depth) {
    for (std::size_t i = 0; i < depth * static_cast<std::size_t>(indent_width_);
         ++i) {
      os_ << ' ';
    }
  }

  void WriteString(std::string_view s) {
    os_ << '"';
    for (char c : s) {
      switch (c) {
        case '"':
          os_ << "\\\"";
          break;
        case '\\':
          os_ << "\\\\";
          break;
        case '\n':
          os_ << "\\n";
          break;
        case '\r':
          os_ << "\\r";
          break;
        case '\t':
          os_ << "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            os_ << buf;
          } else {
            os_ << c;
          }
      }
    }
    os_ << '"';
  }

  std::ostream& os_;
  int indent_width_;
  std::vector<Level> levels_;
  bool pending_value_ = false;
};

// Runs `write` against a JsonWriter and a ReferenceJsonWriter, each on its
// own ostringstream, and returns both outputs.
template <typename Write>
std::pair<std::string, std::string> RenderBoth(int indent, Write write) {
  std::ostringstream got, want;
  {
    JsonWriter w(got, indent);
    write(w, got);
  }
  {
    ReferenceJsonWriter w(want, indent);
    write(w, want);
  }
  return {got.str(), want.str()};
}

TEST(JsonWriterTest, DoublesMatchPercent17g) {
  std::vector<double> values = {0.0,
                                -0.0,
                                DBL_TRUE_MIN,
                                -DBL_TRUE_MIN,
                                DBL_MIN / 3,
                                std::nextafter(DBL_MIN, 0.0),
                                DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX,
                                1e16,
                                1e17,
                                -1e16,
                                1e15 + 0.5,
                                0.1,
                                1.0 / 3,
                                100000,
                                123456789012345678.0,
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
  Rng rng(20231);
  for (int i = 0; i < 1000000; ++i) {
    const uint64_t bits = rng.Next();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    values.push_back(v);
  }
  std::ostringstream got, want;
  int mismatches = 0;
  for (double v : values) {
    got.str("");
    want.str("");
    JsonWriter(got, 0).Value(v);
    ReferenceJsonWriter(want, 0).Value(v);
    if (got.str() != want.str() && ++mismatches <= 10) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      ADD_FAILURE() << "bits 0x" << std::hex << bits << ": got "
                    << got.str() << ", want " << want.str();
    }
  }
  EXPECT_EQ(mismatches, 0);

  auto one = [](double v) {
    std::ostringstream os;
    JsonWriter(os, 0).Value(v);
    return os.str();
  };
  EXPECT_EQ(one(1e16), "10000000000000000");
  EXPECT_EQ(one(1e17), "1e+17");
  EXPECT_EQ(one(-0.0), "-0");
  EXPECT_EQ(one(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(one(-std::numeric_limits<double>::infinity()), "0");
}

template <typename T>
void ExpectIntegralLimitsMatch() {
  using L = std::numeric_limits<T>;
  const T values[] = {L::min(),
                      L::max(),
                      T{0},
                      T{1},
                      static_cast<T>(L::min() + 1),
                      static_cast<T>(L::max() - 1),
                      static_cast<T>(L::max() / 3)};
  for (T v : values) {
    auto [got, want] =
        RenderBoth(0, [v](auto& w, std::ostream&) { w.Value(v); });
    EXPECT_EQ(got, want) << "width " << sizeof(T) << ", signed "
                         << L::is_signed;
  }
}

TEST(JsonWriterTest, IntegersMatchAtEveryWidth) {
  ExpectIntegralLimitsMatch<int8_t>();
  ExpectIntegralLimitsMatch<uint8_t>();
  ExpectIntegralLimitsMatch<char>();
  ExpectIntegralLimitsMatch<int16_t>();
  ExpectIntegralLimitsMatch<uint16_t>();
  ExpectIntegralLimitsMatch<int32_t>();
  ExpectIntegralLimitsMatch<uint32_t>();
  ExpectIntegralLimitsMatch<int64_t>();
  ExpectIntegralLimitsMatch<uint64_t>();
  ExpectIntegralLimitsMatch<long long>();
  ExpectIntegralLimitsMatch<unsigned long long>();
  ExpectIntegralLimitsMatch<std::size_t>();

  // Byte-wide integers print as numbers, not characters.
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.BeginArray().Value(int8_t{-128}).Value(uint8_t{255}).EndArray();
  EXPECT_EQ(os.str(), "[\n-128,\n255\n]");
}

TEST(JsonWriterTest, EveryByteEscapesAsBefore) {
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  for (int indent : {0, 2}) {
    auto [got, want] = RenderBoth(indent, [&all](auto& w, std::ostream&) {
      w.BeginObject();
      for (int b = 0; b < 256; ++b) {
        const std::string s = std::string("a") + static_cast<char>(b) + "z";
        w.Key(s).Value(s);
      }
      w.Key(all).Value(all);
      w.Key("").Value("");
      w.EndObject();
    });
    EXPECT_EQ(got, want) << "indent " << indent;
  }
}

TEST(JsonWriterTest, NestedDocumentsMatchAtIndentZeroAndTwo) {
  for (int indent : {0, 2}) {
    auto [got, want] = RenderBoth(indent, [](auto& w, std::ostream&) {
      w.BeginObject();
      w.Key("empty_object").BeginObject().EndObject();
      w.Key("empty_array").BeginArray().EndArray();
      w.Key("flags").BeginArray().Value(true).Value(false).EndArray();
      w.Key("mixed").BeginArray().Value(1.5).Value(-7).Value("s");
      w.BeginObject().Key("k").Value(uint64_t{42}).EndObject();
      w.EndArray();
      // Deeper than the writer's one constant indent line.
      w.Key("deep");
      for (int d = 0; d < 50; ++d) w.BeginArray();
      w.Value(0.25);
      for (int d = 0; d < 50; ++d) w.EndArray();
      w.EndObject();
    });
    EXPECT_EQ(got, want) << "indent " << indent;
  }
}

TEST(JsonWriterTest, CallerTextAroundTheWriterStaysInOrder) {
  auto [got, want] = RenderBoth(2, [](auto& w, std::ostream& os) {
    os << "before ";
    w.BeginObject().Key("x").Value(1).EndObject();
    os << " after\n";
  });
  EXPECT_EQ(got, want);
  EXPECT_EQ(got, "before {\n  \"x\": 1\n} after\n");
}

// A stream buffer that accepts `room` bytes and then refuses.
class CappedBuf : public std::streambuf {
 public:
  explicit CappedBuf(std::size_t room) : room_(room) {}

 protected:
  int_type overflow(int_type c) override {
    if (room_ == 0 || traits_type::eq_int_type(c, traits_type::eof())) {
      return traits_type::eof();
    }
    --room_;
    return c;
  }

 private:
  std::size_t room_;
};

TEST(JsonWriterTest, ShortWriteSetsBadbit) {
  CappedBuf buf(16);
  std::ostream os(&buf);
  JsonWriter(os).BeginArray().Value(1).EndArray();  // 7 bytes
  EXPECT_FALSE(os.bad());
  JsonWriter(os).Value("more than the nine bytes left");
  EXPECT_TRUE(os.bad());

  std::ostream detached(nullptr);
  JsonWriter(detached).Value(1);
  EXPECT_TRUE(detached.bad());
}

}  // namespace
}  // namespace gpm
