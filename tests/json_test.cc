// The one JSON reader (src/obs/json.h): strictness, the depth bound, every
// escape, and truncation of a real bench result file at every byte.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/json.h"

namespace tempo {
namespace obs {
namespace {

bool Parses(const std::string& text) {
  JsonValue value;
  return ParseJson(text, &value);
}

TEST(JsonTest, DecodesEveryEscape) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(R"("\"\\\/\b\f\n\r\t|\u0001é€😀")", &v));
  ASSERT_EQ(v.kind, JsonValue::Kind::kString);
  EXPECT_EQ(v.text, "\"\\/\b\f\n\r\t|\x01\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
}

TEST(JsonTest, EscapedTextReadsBackAsTheSameBytes) {
  std::string bytes;
  for (int c = 1; c < 256; ++c) {
    bytes.push_back(static_cast<char>(c));
  }
  JsonValue v;
  ASSERT_TRUE(ParseJson("\"" + JsonEscape(bytes) + "\"", &v));
  EXPECT_EQ(v.text, bytes);
}

TEST(JsonTest, RejectsBadEscapesAndRawControlCharacters) {
  for (const char* text : {R"("\x")", R"("\u12")", R"("\u12g4")", R"("\ud800")",
                           R"("\udc00")", R"("\ud800A")", "\"a\x01b\"",
                           "\"line\nbreak\"", "\"tab\there\"", R"("open)", "\"\\"}) {
    EXPECT_FALSE(Parses(text)) << text;
  }
}

TEST(JsonTest, RejectsTrailingBytes) {
  for (const char* text : {"{} x", "1 2", "[1],", "{}}", "\"a\"\"b\"", "null\x01", "true false"}) {
    std::string error;
    JsonValue v;
    EXPECT_FALSE(ParseJson(text, &v, &error)) << text;
  }
  EXPECT_TRUE(Parses(" \t\r\n{}\n "));
}

TEST(JsonTest, NumbersFollowTheGrammarAndKeepTheirLiteral) {
  for (const char* text : {"0", "-0", "12", "-0.5", "1e9", "2.5E-3", "1e+2"}) {
    JsonValue v;
    ASSERT_TRUE(ParseJson(text, &v)) << text;
    EXPECT_EQ(v.kind, JsonValue::Kind::kNumber);
    EXPECT_EQ(v.text, text);
  }
  for (const char* text : {"01", "1.", ".5", "+1", "1e", "-", "nan", "inf", "0x10", "1.e3"}) {
    EXPECT_FALSE(Parses(text)) << text;
  }
}

TEST(JsonTest, DepthIsBounded) {
  const std::string ok = std::string(kJsonMaxDepth, '[') + std::string(kJsonMaxDepth, ']');
  EXPECT_TRUE(Parses(ok));
  const std::string deep =
      std::string(kJsonMaxDepth + 1, '[') + std::string(kJsonMaxDepth + 1, ']');
  std::string error;
  JsonValue v;
  EXPECT_FALSE(ParseJson(deep, &v, &error));
  EXPECT_NE(error.find("depth"), std::string::npos) << error;
  // A million open brackets is an error, not a stack overflow.
  EXPECT_FALSE(Parses(std::string(1'000'000, '[')));
  EXPECT_FALSE(Parses(std::string(500'000, '{')));
}

TEST(JsonTest, EveryTruncationOfACommittedBenchFileIsAnError) {
  std::ifstream in(TEMPO_SOURCE_DIR "/BENCH_trace_query.json", std::ios::binary);
  ASSERT_TRUE(in) << "missing committed BENCH_trace_query.json";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  JsonValue whole;
  ASSERT_TRUE(ParseJson(text, &whole));
  ASSERT_NE(whole.Find("gates"), nullptr);
  const size_t end = text.find_last_of('}') + 1;
  for (size_t n = 0; n < text.size(); ++n) {
    EXPECT_EQ(Parses(text.substr(0, n)), n >= end) << "cut at byte " << n;
  }
}

TEST(JsonTest, WriterOutputReadsBackInOrder) {
  JsonValue doc = JsonValue::Object();
  doc.Set("name", "a \"quoted\"\nline");
  doc.Set("count", uint64_t{18446744073709551615u});
  doc.Set("ratio", 0.125);
  doc.Set("ok", true);
  JsonValue& rows = doc.Set("rows", JsonValue::Array());
  rows.Push(JsonValue::Object()).Set("x", -3);
  rows.Push(JsonValue());
  doc.Set("empty", JsonValue::Object());
  doc.Set("count", 7);  // replaces in place, keeping the key's position

  JsonValue back;
  std::string error;
  ASSERT_TRUE(ParseJson(WriteJson(doc), &back, &error)) << error;
  ASSERT_EQ(back.members.size(), 6u);
  EXPECT_EQ(back.members[0].first, "name");
  EXPECT_EQ(back.members[0].second.text, "a \"quoted\"\nline");
  EXPECT_EQ(back.members[1].first, "count");
  EXPECT_EQ(back.members[1].second.text, "7");
  EXPECT_EQ(back.Find("ratio")->text, "0.125");
  EXPECT_TRUE(back.Find("ok")->boolean);
  ASSERT_EQ(back.Find("rows")->items.size(), 2u);
  EXPECT_EQ(back.Find("rows")->items[0].Find("x")->text, "-3");
  EXPECT_EQ(back.Find("rows")->items[1].kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(back.Find("empty")->members.empty());
}

}  // namespace
}  // namespace obs
}  // namespace tempo
