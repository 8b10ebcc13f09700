#ifndef HPCMIXP_SUPPORT_JSON_H_
#define HPCMIXP_SUPPORT_JSON_H_

/**
 * @file
 * Minimal JSON value, parser and writer.
 *
 * FloatSmith integrates its constituent tools through a JSON-based
 * interchange format (paper Section I); here that format is the
 * harness's --json report, written and read back (by the job journal)
 * through this module. Supports the full JSON grammar except
 * surrogate-pair escapes.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hpcmixp::support::json {

/** Kind of a JSON value. */
enum class ValueKind { Null, Boolean, Number, String, Array, Object };

/** A JSON document node. */
class Value {
  public:
    Value() : kind_(ValueKind::Null) {}

    static Value null();
    static Value boolean(bool b);
    static Value number(double v);
    static Value string(std::string s);
    static Value array();
    static Value object();

    ValueKind kind() const { return kind_; }
    bool isNull() const { return kind_ == ValueKind::Null; }
    bool isObject() const { return kind_ == ValueKind::Object; }
    bool isArray() const { return kind_ == ValueKind::Array; }

    /** Typed accessors; fatal() on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    long asLong() const;
    const std::string& asString() const;

    /** Array access. */
    const std::vector<Value>& items() const;
    void push(Value v);

    /** Object access (insertion-ordered keys). */
    const std::vector<std::string>& keys() const;
    bool has(const std::string& key) const;
    const Value& at(const std::string& key) const;
    Value& set(const std::string& key, Value v);

    /** Serialize; @p indent > 0 pretty-prints. */
    std::string dump(int indent = 0) const;

  private:
    void dumpTo(std::string& out, int indent, int depth) const;

    ValueKind kind_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> items_;
    std::vector<std::string> keys_;
    std::map<std::string, Value> members_;
};

/** Parse a JSON document; fatal()s with offset info on errors. */
Value parse(const std::string& text);

} // namespace hpcmixp::support::json

#endif // HPCMIXP_SUPPORT_JSON_H_
