// End-to-end test of the Figure-7 reproduction pipeline itself (the
// fig7_all driver library): a quick one-panel suite must run and emit a
// well-formed CSV, and the panel CSVs must be byte-identical for any
// thread count.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "fig7_common.hpp"
#include "util/strings.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Fig7Pipeline, QuickPanelRunsAndWritesCsv) {
  tcw::bench::Fig7SuiteOptions suite;
  suite.base.quick = true;
  suite.base.k_over_m = {1.0, 2.0, 4.0};
  suite.panels = {{"fig7_test_panel", 0.5, 25.0}};
  suite.csv_dir = ::testing::TempDir() + "/tcw_fig7_quick";

  EXPECT_EQ(tcw::bench::run_fig7_suite(suite), 0);

  std::ifstream in(suite.csv_dir + "/fig7_test_panel.csv");
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  const auto cols = tcw::split(header, ',');
  ASSERT_GE(cols.size(), 9u);
  EXPECT_EQ(cols[0], "K");

  int rows = 0;
  std::string line;
  double prev_ctrl = 1.0;
  while (std::getline(in, line)) {
    const auto cells = tcw::split(line, ',');
    ASSERT_EQ(cells.size(), cols.size());
    const auto ctrl = tcw::parse_double(cells[2]);  // ctrl_analytic
    ASSERT_TRUE(ctrl.has_value()) << line;
    EXPECT_LE(*ctrl, prev_ctrl + 1e-9);  // analytic curve monotone in K
    prev_ctrl = *ctrl;
    ++rows;
  }
  EXPECT_EQ(rows, 3);
}

TEST(Fig7Pipeline, SuiteCsvIsByteIdenticalAcrossThreadCounts) {
  // The acceptance contract of fig7_all: the shared scheduled suite
  // writes the same panel CSVs byte for byte at any thread count.
  tcw::bench::Fig7SuiteOptions suite;
  suite.base.quick = true;
  suite.base.k_over_m = {1.0, 2.0};
  suite.panels = {{"fig7_rho50_m25", 0.5, 25.0},
                  {"fig7_rho25_m25", 0.25, 25.0}};
  const std::string root = ::testing::TempDir() + "/tcw_fig7_threads";

  suite.base.threads = 1;
  suite.csv_dir = root + "_t1";
  ASSERT_EQ(tcw::bench::run_fig7_suite(suite), 0);
  suite.base.threads = 2;
  suite.csv_dir = root + "_t2";
  ASSERT_EQ(tcw::bench::run_fig7_suite(suite), 0);

  for (const tcw::bench::Fig7PanelSpec& p : suite.panels) {
    const std::string t1 = slurp(root + "_t1/" + p.name + ".csv");
    ASSERT_FALSE(t1.empty()) << p.name;
    EXPECT_EQ(t1, slurp(root + "_t2/" + p.name + ".csv")) << p.name;
  }
}

}  // namespace
