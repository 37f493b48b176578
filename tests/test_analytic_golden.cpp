// Bit-exact golden values of the Section 4 analytic layer, recorded as
// hex floats so that a change in the last bit of any value fails:
//  * the controlled loss curve (p_loss and the fixpoint's loss
//    evaluations) and the FCFS / LCFS no-discard baselines on the
//    Figure-7 K grids -- the three M = 25 panels in full, plus
//    rho' = 0.5, M = 100 at two constraints;
//  * busy-period pmf entries for the geometric-shifted service Figure 7
//    uses (a one-slot work lattice of stride 1) and for deterministic(10)
//    (stride 10).
// A faster kernel is only admissible if it keeps every floating-point
// addition in the same order, and these tables are the check. On a
// mismatch the message carries the computed value in the same %a form,
// so a deliberate model change can re-record the table from it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/busy_period.hpp"
#include "analysis/loss_model.hpp"
#include "analysis/splitting.hpp"
#include "dist/families.hpp"

namespace {

namespace analysis = tcw::analysis;
namespace dist = tcw::dist;

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void expect_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": got " << hex(got) << ", golden " << hex(want);
}

struct PanelGolden {
  double offered_load;
  double message_length;
  std::vector<double> K;
  std::vector<double> controlled;
  std::vector<int> iterations;
  std::vector<double> fcfs;
  std::vector<double> lcfs;
};

struct BusyPeriodGolden {
  double lambda;
  std::size_t len;
  std::size_t stride;  // entries[i] is P(T = i * stride)
  std::vector<double> entries;
  double tail_mass;
};

const std::vector<PanelGolden>& panels() {
  static const std::vector<PanelGolden> table = {
    {.offered_load = 0.25,
     .message_length = 25,
     .K = {12.5, 25, 37.5, 50, 75, 100, 150, 200, 300, 400},
     .controlled = {
         0x1.0aef5fecf2d94p-3, 0x1.700429acbee2p-5, 0x1.11624f6050fabp-6,
         0x1.73ba5125c3d81p-8, 0x1.831395a90dc01p-11, 0x1.90af120861562p-14,
         0x1.a8daf7abffff6p-20, 0x1.c17789fffffe5p-26, 0x1.d443fffff9bbbp-38,
         0x1.b08ffffff9bbbp-39},
     .iterations = {5, 5, 4, 4, 4, 3, 3, 3, 3, 1},
     .fcfs = {
         0x1.5ed146a86470cp-3, 0x1.f35b7438a3dbp-5, 0x1.74fc655d1d78p-6,
         0x1.fc9e47dc67ep-8, 0x1.08f868de8a2p-10, 0x1.124a05af8fp-13,
         0x1.22d53d17p-19, 0x1.33ae381p-25, 0x1.408ap-37,
         -0x1.874p-41},
     .lcfs = {
         0x1.41af9ce0b5b8cp-3, 0x1.9572ee385a26p-5, 0x1.f3fbdd611e8cp-6,
         0x1.0bf039c331ep-6, 0x1.a600ed637be8p-8, 0x1.690cae813fp-9,
         0x1.2c627b4403p-11, 0x1.12594303e8p-13, 0x1.152acc257p-17,
         0x1.734115c7p-21},
    },
    {.offered_load = 0.5,
     .message_length = 25,
     .K = {12.5, 25, 37.5, 50, 75, 100, 150, 200, 300, 400},
     .controlled = {
         0x1.e6eedb84981e4p-3, 0x1.fd89444719b1p-4, 0x1.247f851a3ff98p-4,
         0x1.4ad4aa29400c6p-5, 0x1.c7b32c0ca738dp-7, 0x1.3e8f11a1a2801p-8,
         0x1.3aee5dac163ffp-11, 0x1.385d22e7450bep-14, 0x1.33bff3da7fffap-20,
         0x1.2f8438a000003p-26},
     .iterations = {5, 5, 4, 4, 4, 4, 4, 3, 3, 3},
     .fcfs = {
         0x1.a090bf5d0d0fp-2, 0x1.e8120d2564174p-3, 0x1.2730078dd0084p-3,
         0x1.58f7dc28cd3dp-4, 0x1.e82300c46652p-6, 0x1.5839492bf99cp-7,
         0x1.5590d0626b6p-10, 0x1.52e80dcb78p-13, 0x1.4de9b7f14p-19,
         0x1.4951dd3p-25},
     .lcfs = {
         0x1.4fcd2f799182p-2, 0x1.3270a6669e3fp-3, 0x1.d84f3a55dc568p-4,
         0x1.43ccdd8c9c0a8p-4, 0x1.9078dde67aacp-5, 0x1.0adf7046ce68p-5,
         0x1.0aa9c02e3d5cp-6, 0x1.22c74b372654p-7, 0x1.90cd696f2b9p-9,
         0x1.42c7d5f883p-10},
    },
    {.offered_load = 0.75,
     .message_length = 25,
     .K = {12.5, 25, 37.5, 50, 75, 100, 150, 200, 300, 400},
     .controlled = {
         0x1.4e64c20bbe198p-2, 0x1.b8360f3b2c69cp-3, 0x1.3d4794a6f43d4p-3,
         0x1.d4c0b9285d3c2p-4, 0x1.16a8be474d74ep-4, 0x1.5dffd2edd7e04p-5,
         0x1.2bb4cd25b8f27p-6, 0x1.0e16cd8626b83p-7, 0x1.ce2c6511dac0cp-10,
         0x1.93518bc9316dcp-12},
     .iterations = {5, 5, 5, 4, 4, 4, 4, 4, 4, 3},
     .fcfs = {
         0x1.70ff8e6abb9d3p-1, 0x1.2fee36d85ef42p-1, 0x1.f955aa939d276p-2,
         0x1.a09d4fc72bfa8p-2, 0x1.1d56e01b33a08p-2, 0x1.868aee4e41facp-3,
         0x1.6dacfc2da5dd8p-4, 0x1.56654c8186b3p-5, 0x1.2c39f76e5aap-7,
         0x1.074bca90256p-9},
     .lcfs = {
         0x1.059bb3c6b7d47p-1, 0x1.27f152db25b28p-2, 0x1.f488909f0ae5p-3,
         0x1.8974b3c6ab4f4p-3, 0x1.2aaf128bae7a4p-3, 0x1.e2191d25c15c8p-4,
         0x1.5937b0064d0b8p-4, 0x1.08ff1b3aff658p-4, 0x1.5cb645aa4e41p-5,
         0x1.f8bad281b2c8p-6},
    },
    {.offered_load = 0.5,
     .message_length = 100,
     .K = {100, 400},
     .controlled = {
         0x1.a820d6306032p-4, 0x1.61306a071235fp-9},
     .iterations = {5, 4},
     .fcfs = {
         0x1.87be5c108b8b4p-3, 0x1.6753868cbf48p-8},
     .lcfs = {
         0x1.e07e05fd73158p-4, 0x1.6b4a2ea1aad4p-6},
    },
  };
  return table;
}

void check_panel(const PanelGolden& g) {
  analysis::ProtocolModelConfig cfg;
  cfg.offered_load = g.offered_load;
  cfg.message_length = g.message_length;
  const std::string panel = "rho'=" + std::to_string(g.offered_load) +
                            " M=" + std::to_string(g.message_length);
  const auto curve = analysis::controlled_loss_curve(cfg, g.K);
  ASSERT_EQ(curve.size(), g.K.size());
  for (std::size_t i = 0; i < g.K.size(); ++i) {
    const std::string at = panel + " K=" + std::to_string(g.K[i]);
    expect_bits(curve[i].p_loss, g.controlled[i], at + " controlled");
    EXPECT_EQ(curve[i].iterations, g.iterations[i]) << at << " iterations";
    expect_bits(analysis::fcfs_nodiscard_loss(cfg, g.K[i]), g.fcfs[i],
                at + " fcfs");
    expect_bits(analysis::lcfs_nodiscard_loss(cfg, g.K[i]), g.lcfs[i],
                at + " lcfs");
  }
}

void check_busy_period(const dist::Pmf& service, const BusyPeriodGolden& g) {
  const auto t = analysis::busy_period_distribution(service, g.lambda, g.len);
  ASSERT_EQ(t.size(), g.len);
  for (std::size_t i = 0; i < g.entries.size(); ++i) {
    const std::size_t n = i * g.stride;
    expect_bits(t.at(n), g.entries[i], "P(T = " + std::to_string(n) + ")");
  }
  expect_bits(t.tail_mass(), g.tail_mass, "tail mass");
}

TEST(AnalyticGolden, Figure7PanelsAtM25) {
  for (std::size_t p = 0; p < 3; ++p) check_panel(panels()[p]);
}

TEST(AnalyticGolden, Figure7Rho50M100TwoConstraints) {
  check_panel(panels()[3]);
}

TEST(AnalyticGolden, BusyPeriodGeometricShiftedService) {
  // The LCFS baseline's service at rho' = 0.5, M = 25: transmission plus
  // a geometric scheduling delay, so the one-slot work has stride 1.
  analysis::ProtocolModelConfig cfg;
  cfg.offered_load = 0.5;
  cfg.message_length = 25.0;
  const dist::Pmf service =
      analysis::service_distribution(cfg, analysis::optimal_window_load());
  const BusyPeriodGolden g = {
      .lambda = cfg.lambda(),
      .len = 400,
      .stride = 13,
      .entries = {
          0x0p+0, 0x0p+0, 0x1.36ca9e83827f3p-2,
          0x1.6ba342a6150edp-16, 0x1.88670078b1c9p-5, 0x1.f62b24a9a59p-15,
          0x1.73953856a1b1bp-7, 0x1.e56e801bf5564p-14, 0x1.a1087d6ca4831p-9,
          0x1.7befb0fcfbcebp-13, 0x1.0120b9c248ffdp-10, 0x1.ffd16133ddcbap-13,
          0x1.50da3a0815d57p-12, 0x1.33460fcf9ab33p-12, 0x1.cdbe081fc4d4ep-14,
          0x1.50839db75a5afp-12, 0x1.4c7016c290b21p-15, 0x1.55a6d2997dcd4p-12,
          0x1.089c179240143p-16, 0x1.457676a5bc76ep-12, 0x1.0e8588d920407p-17,
          0x1.259ca9e52e822p-12, 0x1.a06b1e69acc3dp-18, 0x1.f95b1bb156624p-13,
          0x1.b87e5208a536ap-18, 0x1.a15087d36bbcp-13, 0x1.04821b04c4507p-17,
          0x1.4c46b557c2dd5p-13, 0x1.353fb6865172p-17, 0x1.00218be73d35p-13,
          0x1.645241bdf11ap-17},
      .tail_mass = 0x1.6a7563f41998p-8,
  };
  check_busy_period(service, g);
}

TEST(AnalyticGolden, BusyPeriodDeterministicTen) {
  const BusyPeriodGolden g = {
      .lambda = 0.05,  // rho = 0.5
      .len = 1000,
      .stride = 30,
      .entries = {
          0x0p+0, 0x1.56ba595b885cp-4, 0x1.134d7570b8521p-6,
          0x1.515bcff0d13b5p-8, 0x1.ec2713885b9ep-10, 0x1.8b1c79efcdfbdp-11,
          0x1.511420e749e21p-12, 0x1.2be702aadb4aep-13, 0x1.132993f505cccp-14,
          0x1.02783c2474547p-15, 0x1.eeac8c79b43edp-17, 0x1.e087f38163f06p-18,
          0x1.d89e9ecf28195p-19, 0x1.d5b528c229eddp-20, 0x1.d6f9d03422badp-21,
          0x1.dbe0053ebc26fp-22, 0x1.e40a6ab92371p-23, 0x1.ef3d1944fcd9bp-24,
          0x1.fd54cce4016eep-25, 0x1.07208dfec060cp-25, 0x1.11004f67b079ap-26,
          0x1.1c4f2ee05aa61p-27, 0x1.29180eb494f28p-28, 0x1.376aa2be1e3d5p-29,
          0x1.475b1ba68e50fp-30, 0x1.5901fbb777973p-31, 0x1.6c7c0bc162a2bp-32,
          0x1.81ea69c9e8b37p-33, 0x1.9972ad533328fp-34, 0x1.b33f1e894e232p-35,
          0x1.cf7efeae8cfb8p-36, 0x1.ee66e0e4f89a6p-37, 0x1.08188983c8b18p-37,
          0x1.1a8f0b5d8d05ap-38},
      .tail_mass = 0x1.32258p-36,
  };
  check_busy_period(dist::deterministic(10), g);
  // Off the stride-10 lattice every entry is exactly +0.0.
  const auto t = analysis::busy_period_distribution(dist::deterministic(10),
                                                    g.lambda, g.len);
  for (std::size_t n = 0; n < g.len; ++n) {
    if (n % 10 != 0) {
      expect_bits(t.at(n), 0.0, "P(T = " + std::to_string(n) + ")");
    }
  }
}

}  // namespace
