/**
 * @file
 * Tests for the JSON module. The report format built on it (the
 * harness's --json entries and job-journal records) is tested in
 * harness_test.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "support/json.h"
#include "support/logging.h"

namespace {

using namespace hpcmixp::support::json;
using hpcmixp::support::FatalError;

// ---- json values -------------------------------------------------------

TEST(Json, ConstructionAndAccessors)
{
    Value obj = Value::object();
    obj.set("name", Value::string("dd"));
    obj.set("count", Value::number(42));
    obj.set("ok", Value::boolean(true));
    obj.set("nothing", Value::null());

    EXPECT_EQ(obj.at("name").asString(), "dd");
    EXPECT_EQ(obj.at("count").asLong(), 42);
    EXPECT_TRUE(obj.at("ok").asBool());
    EXPECT_TRUE(obj.at("nothing").isNull());
    EXPECT_FALSE(obj.has("missing"));
    EXPECT_THROW(obj.at("missing"), FatalError);
    EXPECT_THROW(obj.at("name").asNumber(), FatalError);
}

TEST(Json, ObjectKeysKeepInsertionOrder)
{
    Value obj = Value::object();
    obj.set("z", Value::number(1));
    obj.set("a", Value::number(2));
    obj.set("m", Value::number(3));
    ASSERT_EQ(obj.keys().size(), 3u);
    EXPECT_EQ(obj.keys()[0], "z");
    EXPECT_EQ(obj.keys()[2], "m");
    obj.set("z", Value::number(9)); // overwrite keeps position
    EXPECT_EQ(obj.keys().size(), 3u);
    EXPECT_EQ(obj.at("z").asLong(), 9);
}

TEST(Json, DumpCompactAndPretty)
{
    Value arr = Value::array();
    arr.push(Value::number(1));
    arr.push(Value::string("two"));
    Value obj = Value::object();
    obj.set("items", arr);
    EXPECT_EQ(obj.dump(), R"({"items":[1,"two"]})");
    std::string pretty = obj.dump(2);
    EXPECT_NE(pretty.find("\n  \"items\""), std::string::npos);
}

TEST(Json, DumpEscapesStrings)
{
    Value v = Value::string("a\"b\\c\nd");
    EXPECT_EQ(v.dump(), R"("a\"b\\c\nd")");
}

TEST(Json, NonFiniteNumbersSerializeAsNull)
{
    EXPECT_EQ(Value::number(std::nan("")).dump(), "null");
    EXPECT_EQ(Value::number(INFINITY).dump(), "null");
}

// ---- json parsing --------------------------------------------------------

TEST(Json, ParseRoundTrip)
{
    std::string text =
        R"({"a": [1, 2.5, -3e-2], "b": {"c": true, "d": null},)"
        R"( "s": "x\ty"})";
    Value v = parse(text);
    EXPECT_DOUBLE_EQ(v.at("a").items()[1].asNumber(), 2.5);
    EXPECT_DOUBLE_EQ(v.at("a").items()[2].asNumber(), -3e-2);
    EXPECT_TRUE(v.at("b").at("c").asBool());
    EXPECT_TRUE(v.at("b").at("d").isNull());
    EXPECT_EQ(v.at("s").asString(), "x\ty");

    // Re-parse of the dump yields the same structure.
    Value again = parse(v.dump());
    EXPECT_EQ(again.dump(), v.dump());
}

TEST(Json, ParseUnicodeEscapes)
{
    Value v = parse(R"("Aé")");
    EXPECT_EQ(v.asString(), "A\xc3\xa9");
}

TEST(Json, ParseErrorsAreFatal)
{
    EXPECT_THROW(parse("{"), FatalError);
    EXPECT_THROW(parse("[1, ]"), FatalError);
    EXPECT_THROW(parse("{\"a\" 1}"), FatalError);
    EXPECT_THROW(parse("tru"), FatalError);
    EXPECT_THROW(parse("1 2"), FatalError);
    EXPECT_THROW(parse(""), FatalError);
}

TEST(Json, ParseEmptyContainers)
{
    EXPECT_TRUE(parse("{}").isObject());
    EXPECT_TRUE(parse("[]").isArray());
    EXPECT_EQ(parse("[]").items().size(), 0u);
}

} // namespace
