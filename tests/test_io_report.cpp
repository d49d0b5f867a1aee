// Tests of TestCase serialization / replay and the campaign report writers.
#include <gtest/gtest.h>

#include "core/tg.h"
#include "errors/report.h"
#include "isa/asm.h"
#include "isa/testcase_io.h"
#include "sim/cosim.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

TestCase sample() {
  const AsmResult r = assemble("addi r1, r0, 7\nsw 0x40(r0), r1\n");
  TestCase tc;
  tc.imem = encode_program(r.program);
  tc.rf_init[5] = 0xDEADBEEF;
  tc.dmem_init[0x80] = 0x12345678;
  return tc;
}

TEST(TestIo, RoundTrip) {
  const TestCase tc = sample();
  const std::string text = serialize_test(tc);
  const TestLoadResult r = parse_test(text);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.test.imem, tc.imem);
  EXPECT_EQ(r.test.rf_init, tc.rf_init);
  EXPECT_EQ(r.test.dmem_init, tc.dmem_init);
}

TEST(TestIo, SerializationIsReadable) {
  const std::string text = serialize_test(sample());
  EXPECT_NE(text.find("addi r1, r0, 7"), std::string::npos);  // disassembly
  EXPECT_NE(text.find("reg 5 deadbeef"), std::string::npos);
  EXPECT_NE(text.find("mem 00000080 12345678"), std::string::npos);
}

TEST(TestIo, ParserRejectsGarbage) {
  EXPECT_FALSE(parse_test("bogus 123\n").ok());
  EXPECT_FALSE(parse_test("reg 99 0\n").ok());
  EXPECT_FALSE(parse_test("instr\n").ok());
}

TEST(TestIo, CommentsAndBlanksIgnored) {
  const TestLoadResult r =
      parse_test("# header\n\ninstr 00000000 # trailing\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.test.imem.size(), 1u);
}

TEST(TestIo, FileRoundTrip) {
  const TestCase tc = sample();
  const std::string path = ::testing::TempDir() + "hltg_test_case.txt";
  ASSERT_TRUE(save_test(tc, path));
  const TestLoadResult r = load_test(path);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.test.imem, tc.imem);
}

TEST(TestIo, ReplayedTestStillDetects) {
  // Generate a test, serialize, reload, and confirm it still detects.
  const NetId site = model().dp.find_net("ex.alu_xor");
  DesignError e{BusSslError{site, 0, false}};
  TestGenerator tg(model());
  const TgResult g = tg.generate(e);
  ASSERT_EQ(g.status, TgStatus::kSuccess);
  const TestLoadResult r = parse_test(serialize_test(g.test));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(detects(model(), r.test, e.injection()));
}

TEST(Report, CsvShape) {
  const auto errs = wrap(std::vector<BusSslError>{
      {model().dp.find_net("ex.alu_add"), 0, false}});
  TestGenerator tg(model());
  const CampaignResult res =
      run_campaign(model().dp, errs, tg.budgeted_strategy());
  const std::string csv = campaign_csv(model().dp, res);
  EXPECT_NE(csv.find("model,error,outcome"), std::string::npos);
  EXPECT_NE(csv.find("bus-SSL"), std::string::npos);
  EXPECT_NE(csv.find("detected"), std::string::npos);
  // Exactly header + one row.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(Report, CsvEscapesCommas) {
  // describe() strings contain no commas today, but the writer must be
  // robust anyway - check the escaping helper through a synthetic attempt.
  CampaignResult res;
  CampaignRow row{wrap(std::vector<BusSslError>{
                           {model().dp.find_net("ex.alu_add"), 0, false}})[0],
                  {}};
  res.rows.push_back(row);
  const std::string csv = campaign_csv(model().dp, res);
  EXPECT_NE(csv.find("aborted"), std::string::npos);
}

TEST(Report, MarkdownShape) {
  const auto errs = wrap(std::vector<BusSslError>{
      {model().dp.find_net("ex.alu_add"), 0, false},
      {model().dp.find_net("ex.slt32"), 31, false}});
  TestGenerator tg(model());
  const CampaignResult res =
      run_campaign(model().dp, errs, tg.budgeted_strategy());
  const std::string md = campaign_markdown(model().dp, res, "Spot check");
  EXPECT_NE(md.find("# Spot check"), std::string::npos);
  EXPECT_NE(md.find("| detected | 1 |"), std::string::npos);
  // ex.slt32 bit 31 is constant 0: proven redundant, not aborted.
  EXPECT_NE(md.find("| aborted | 0 |"), std::string::npos);
  EXPECT_NE(md.find("| proven redundant | 1 |"), std::string::npos);
  EXPECT_NE(campaign_csv(model().dp, res).find(
                "ex.slt32[31] stuck-at-0 (EX),proven_redundant,none,"),
            std::string::npos);
}

}  // namespace
}  // namespace hltg
