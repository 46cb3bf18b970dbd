#ifndef UOLAP_OBS_JSON_WRITER_H_
#define UOLAP_OBS_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace uolap::obs {

/// Small streaming JSON emitter used by the profile/trace exporters.
/// Emits keys in exactly the order the caller writes them — the schema
/// tests rely on byte-stable output — and formats doubles with the
/// shortest representation that round-trips, so equal inputs always
/// serialize to equal bytes.
///
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("schema"); w.String("uolap-profile");
///   w.Key("runs"); w.BeginArray(); ... w.EndArray();
///   w.EndObject();
///   std::string text = w.TakeString();
class JsonWriter {
 public:
  /// `indent` spaces per nesting level; 0 = compact single-line output.
  explicit JsonWriter(int indent = 2) : indent_(indent) {}

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  void Key(std::string_view key);

  void String(std::string_view value);
  void Double(double value);
  void Int(int64_t value);
  void UInt(uint64_t value);
  void Bool(bool value);

  /// Convenience: Key + value.
  void KV(std::string_view key, std::string_view value) {
    Key(key);
    String(value);
  }
  void KV(std::string_view key, const char* value) {
    Key(key);
    String(value);
  }
  void KV(std::string_view key, double value) {
    Key(key);
    Double(value);
  }
  void KV(std::string_view key, int64_t value) {
    Key(key);
    Int(value);
  }
  void KV(std::string_view key, uint64_t value) {
    Key(key);
    UInt(value);
  }
  void KV(std::string_view key, int value) {
    Key(key);
    Int(value);
  }
  void KV(std::string_view key, bool value) {
    Key(key);
    Bool(value);
  }

  /// The finished document. The writer must be back at nesting depth 0.
  std::string TakeString();

  /// Escapes `s` as a JSON string literal (with quotes).
  static std::string Escape(std::string_view s);
  /// Shortest decimal form of `v` that parses back to the same double.
  static std::string FormatDouble(double v);

 private:
  void Prefix();  ///< comma/newline/indent before a value or key

  std::string out_;
  int indent_;
  std::vector<bool> needs_comma_;  ///< per open container
  bool after_key_ = false;
  int depth_ = 0;
};

}  // namespace uolap::obs

#endif  // UOLAP_OBS_JSON_WRITER_H_
