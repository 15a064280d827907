/**
 * @file
 * Canonical JSON shared by every layer that persists or exchanges
 * documents (the experiment engine's cache and artifacts, the
 * observability and profiling outputs): a writer whose
 * byte output is deterministic (fixed key order is the caller's job;
 * number formatting is exact and reproducible), a small parser for
 * reading documents back, and a lexeme-preserving rewriter.
 *
 * Doubles are printed with the shortest representation that round-trips
 * through strtod, so a value that travels disk -> memory -> disk is
 * byte-identical. uint64 counters are printed as exact decimal integers
 * (never through a double), so all 64 bits survive.
 */

#ifndef PBS_UTIL_JSON_HH
#define PBS_UTIL_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pbs::util {

/** Shortest decimal form of @p v that strtod parses back bit-exactly. */
std::string canonicalDouble(double v);

/** JSON string escaping (adds the surrounding quotes). */
std::string jsonEscape(const std::string &s);

/**
 * Streaming writer producing compact canonical JSON. Keys are emitted
 * in call order; commas are managed automatically.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object member key; must be followed by exactly one value. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &s);
    JsonWriter &value(const char *s);
    JsonWriter &value(bool b);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(unsigned v);
    JsonWriter &value(double v);
    JsonWriter &null();

    /** Splice a pre-rendered JSON fragment in value position. */
    JsonWriter &raw(const std::string &fragment);

    /** Insert a newline (cosmetic; between top-level array elements). */
    JsonWriter &newline();

    const std::string &str() const { return out_; }

  private:
    void comma();

    std::string out_;
    std::vector<bool> first_;  ///< per nesting level
    bool pendingKey_ = false;
};

/** Parsed JSON value. Numbers keep their lexeme for exact re-reads. */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    std::string text;  ///< string contents, or the number lexeme
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return type == Type::Null; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &k) const;

    /** Exact integer reads (the lexeme never passes through a double). */
    uint64_t asU64(uint64_t fallback = 0) const;
    int64_t asI64(int64_t fallback = 0) const;
    double asDouble(double fallback = 0.0) const;
    bool asBool(bool fallback = false) const;
    std::string asString(const std::string &fallback = "") const;
};

/** Parse @p text; @return false (and sets @p err) on malformed input. */
bool parseJson(const std::string &text, JsonValue &out, std::string &err);

/**
 * Re-emit a parsed value through a writer, preserving member order and
 * number lexemes. Because the canonical writer is compact and numbers
 * keep their original spelling, writer-produced JSON survives a
 * parse -> rewrite round trip byte-identically (the property the shard
 * merge relies on to echo configuration blocks exactly).
 */
void rewriteJson(JsonWriter &w, const JsonValue &v);

/** Render a parsed value back to its compact canonical form. */
std::string rewriteJson(const JsonValue &v);

}  // namespace pbs::util

#endif  // PBS_UTIL_JSON_HH
