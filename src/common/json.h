#ifndef GAMMA_COMMON_JSON_H_
#define GAMMA_COMMON_JSON_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gpm {

/// Minimal streaming JSON writer (no external dependency).
///
/// Emits indented, standards-valid JSON to an ostream. The caller drives
/// the document structure with BeginObject/BeginArray/Key/Value; commas,
/// newlines, string escaping, and non-finite doubles (written as 0) are
/// handled here. Used by the observability exports (DeviceStats /
/// RunProfile), which must stay machine-readable.
///
/// Bytes go straight to the stream's buffer: numbers are formatted with
/// `std::to_chars` (doubles as `%.17g` would print them), and each run of
/// unescaped string bytes and each line break with its indent is one
/// `sputn`. The stream's formatting flags are not consulted. A short
/// write sets `badbit` on the stream.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, int indent_width = 2)
      : os_(os), buf_(os.rdbuf()), indent_width_(indent_width) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& BeginObject() {
    Open('{');
    return *this;
  }
  JsonWriter& EndObject() {
    Close('}');
    return *this;
  }
  JsonWriter& BeginArray() {
    Open('[');
    return *this;
  }
  JsonWriter& EndArray() {
    Close(']');
    return *this;
  }

  JsonWriter& Key(std::string_view key) {
    Separate();
    WriteString(key);
    Put(": ");
    pending_value_ = true;
    return *this;
  }

  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonWriter& Value(T v) {
    Separate();
    char buf[24];
    // Unary plus prints character types as numbers.
    const char* end = std::to_chars(buf, buf + sizeof(buf), +v).ptr;
    Put(std::string_view(buf, static_cast<std::size_t>(end - buf)));
    return *this;
  }

  JsonWriter& Value(double v) {
    Separate();
    if (!std::isfinite(v)) v = 0.0;
    char buf[40];
    const char* end = std::to_chars(buf, buf + sizeof(buf), v,
                                    std::chars_format::general, 17)
                          .ptr;
    Put(std::string_view(buf, static_cast<std::size_t>(end - buf)));
    return *this;
  }

  JsonWriter& Value(bool v) {
    Separate();
    Put(v ? "true" : "false");
    return *this;
  }

  JsonWriter& Value(std::string_view v) {
    Separate();
    WriteString(v);
    return *this;
  }
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }

 private:
  struct Level {
    bool first = true;
  };

  void Put(std::string_view s) {
    const auto n = static_cast<std::streamsize>(s.size());
    if (buf_ == nullptr || buf_->sputn(s.data(), n) != n) {
      os_.setstate(std::ios_base::badbit);
    }
  }
  void Put(char c) { Put(std::string_view(&c, 1)); }

  void Open(char c) {
    Separate();
    Put(c);
    levels_.push_back({});
  }

  void Close(char c) {
    bool empty = levels_.back().first;
    levels_.pop_back();
    if (!empty) Break(/*comma=*/false);
    Put(c);
  }

  // Positions the stream for the next element: nothing after a Key, a
  // comma + newline + indent between siblings.
  void Separate() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (levels_.empty()) return;
    const bool comma = !levels_.back().first;
    levels_.back().first = false;
    Break(comma);
  }

  // Writes an optional comma, a newline and the indent of the current
  // depth; the indent is sliced from one constant line.
  void Break(bool comma) {
    static constexpr std::string_view kLine =
        ",\n                                                              ";
    constexpr std::size_t kMaxSpaces = kLine.size() - 2;
    std::size_t spaces =
        levels_.size() * static_cast<std::size_t>(indent_width_);
    std::size_t take = std::min(spaces, kMaxSpaces);
    Put(kLine.substr(comma ? 0 : 1, (comma ? 2 : 1) + take));
    for (spaces -= take; spaces > 0; spaces -= take) {
      take = std::min(spaces, kMaxSpaces);
      Put(kLine.substr(2, take));
    }
  }

  void WriteString(std::string_view s) {
    Put('"');
    std::size_t run = 0;  // start of the pending unescaped bytes
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto c = static_cast<unsigned char>(s[i]);
      if (c >= 0x20 && c != '"' && c != '\\') continue;
      Put(s.substr(run, i - run));
      run = i + 1;
      switch (c) {
        case '"':
          Put("\\\"");
          break;
        case '\\':
          Put("\\\\");
          break;
        case '\n':
          Put("\\n");
          break;
        case '\r':
          Put("\\r");
          break;
        case '\t':
          Put("\\t");
          break;
        default: {
          static constexpr char kHex[] = "0123456789abcdef";
          const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
          Put(std::string_view(esc, sizeof(esc)));
        }
      }
    }
    Put(s.substr(run));
    Put('"');
  }

  std::ostream& os_;
  std::streambuf* buf_;
  int indent_width_;
  std::vector<Level> levels_;
  bool pending_value_ = false;
};

}  // namespace gpm

#endif  // GAMMA_COMMON_JSON_H_
