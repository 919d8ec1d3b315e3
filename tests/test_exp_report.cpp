/// \file test_exp_report.cpp
/// \brief Tests for the JSON writer and the file sink.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "exp/report.hpp"
#include "util/check.hpp"

namespace voodb::exp {
namespace {

TEST(JsonWriterTest, BuildsNestedStructures) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").Value("run");
  w.Key("n").Value(uint64_t{3});
  w.Key("ok").Value(true);
  w.Key("items").BeginArray().Value(1.5).Value(int64_t{-2}).Null().EndArray();
  w.Key("nested").BeginObject().Key("x").Value(0.25).EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"run\",\"n\":3,\"ok\":true,"
            "\"items\":[1.5,-2,null],\"nested\":{\"x\":0.25}}");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").Value("a\"b\\c\nd\te\x01");
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Value(std::numeric_limits<double>::infinity());
  w.Value(std::numeric_limits<double>::quiet_NaN());
  w.Value(1.0);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,1]");
}

TEST(JsonWriterTest, DoublesRoundTrip) {
  JsonWriter w;
  w.BeginArray().Value(0.95).Value(1.0 / 3.0).EndArray();
  // 0.95 prints short, 1/3 prints with enough digits to round-trip.
  EXPECT_EQ(w.str(), "[0.95,0.333333333333333" "31]");
}

TEST(WriteFileTest, WritesAndFailsLoudly) {
  const std::string path = "test_exp_report_tmp.json";
  WriteFile(path, "{\"ok\":true}");
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "{\"ok\":true}");
  std::remove(path.c_str());
  EXPECT_THROW(WriteFile("no/such/dir/file.json", "x"), util::Error);
}

}  // namespace
}  // namespace voodb::exp
