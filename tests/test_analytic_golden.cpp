// Bit-exact golden values of the Section 4 analytic layer, recorded as
// hex floats so that a change in the last bit of any value fails:
//  * the controlled loss curve (p_loss and the fixpoint's loss
//    evaluations) and the FCFS / LCFS no-discard baselines on the
//    Figure-7 K grids -- the three M = 25 panels in full, plus
//    rho' = 0.5, M = 100 at two constraints;
//  * busy-period pmf entries for the geometric-shifted service Figure 7
//    uses (a wide service support) and for deterministic(10) (a single
//    spike).
// A kernel that keeps every floating-point addition in the same order
// passes unchanged; a deliberate numerical change (such as the busy
// period's Poisson mixture over arrival counts) re-records the table and
// states how far each value moved. On a mismatch the message carries the
// computed value in the same %a form, so the table can be re-recorded
// from it.
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
         0x1.0aef5fecf2d94p-3, 0x1.700429acbee2p-5, 0x1.11624f6050f8bp-6,
         0x1.73ba5125c3d81p-8, 0x1.831395a90dc01p-11, 0x1.90af120863562p-14,
         0x1.a8daf7abffff6p-20, 0x1.c17789fffffe5p-26, 0x1.d443fffff9bbbp-38,
         0x1.d443fffff9bbbp-39},
     .iterations = {5, 5, 4, 4, 4, 3, 3, 3, 3, 1},
     .fcfs = {
         0x1.5ed146a86470cp-3, 0x1.f35b7438a3dbp-5, 0x1.74fc655d1d76p-6,
         0x1.fc9e47dc67ep-8, 0x1.08f868de8a2p-10, 0x1.124a05af8fp-13,
         0x1.22d53d17p-19, 0x1.33ae38p-25, 0x1.408ap-37,
         0x0p+0},
     .lcfs = {
         0x1.41af9ce0b5b8cp-3, 0x1.9572ee385a27p-5, 0x1.f3fbdd611e92p-6,
         0x1.0bf039c331e6p-6, 0x1.a600ed637c08p-8, 0x1.690cae813f4p-9,
         0x1.2c627b4404p-11, 0x1.12594303c4p-13, 0x1.152acc1d6p-17,
         0x1.7341152dp-21},
    },
    {.offered_load = 0.5,
     .message_length = 25,
     .K = {12.5, 25, 37.5, 50, 75, 100, 150, 200, 300, 400},
     .controlled = {
         0x1.e6eedb84981e4p-3, 0x1.fd89444719b1p-4, 0x1.247f851a3ff98p-4,
         0x1.4ad4aa29400b7p-5, 0x1.c7b32c0ca738dp-7, 0x1.3e8f11a1a2701p-8,
         0x1.3aee5dac163ffp-11, 0x1.385d22e7490bap-14, 0x1.33bff3da7fffap-20,
         0x1.2f8438a000005p-26},
     .iterations = {5, 5, 4, 4, 4, 4, 4, 3, 3, 3},
     .fcfs = {
         0x1.a090bf5d0d0fp-2, 0x1.e8120d2564174p-3, 0x1.2730078dd008p-3,
         0x1.58f7dc28cd3c8p-4, 0x1.e82300c46652p-6, 0x1.5839492bf994p-7,
         0x1.5590d0626b2p-10, 0x1.52e80dcb78p-13, 0x1.4de9b7f14p-19,
         0x1.4951dd3p-25},
     .lcfs = {
         0x1.4fcd2f7991826p-2, 0x1.3270a6669e418p-3, 0x1.d84f3a55dc5ep-4,
         0x1.43ccdd8c9c15p-4, 0x1.9078dde67ac7p-5, 0x1.0adf7046ce87p-5,
         0x1.0aa9c02e3dap-6, 0x1.22c74b3726c8p-7, 0x1.90cd696f27ep-9,
         0x1.42c7d5f86b8p-10},
    },
    {.offered_load = 0.75,
     .message_length = 25,
     .K = {12.5, 25, 37.5, 50, 75, 100, 150, 200, 300, 400},
     .controlled = {
         0x1.4e64c20bbe198p-2, 0x1.b8360f3b2c69cp-3, 0x1.3d4794a6f43d4p-3,
         0x1.d4c0b9285d3c2p-4, 0x1.16a8be474d756p-4, 0x1.5dffd2edd7e04p-5,
         0x1.2bb4cd25b8f07p-6, 0x1.0e16cd8626b83p-7, 0x1.ce2c6511dac0cp-10,
         0x1.93518bc9316ddp-12},
     .iterations = {5, 5, 5, 4, 4, 4, 4, 4, 4, 3},
     .fcfs = {
         0x1.70ff8e6abb9d3p-1, 0x1.2fee36d85ef42p-1, 0x1.f955aa939d276p-2,
         0x1.a09d4fc72bfa6p-2, 0x1.1d56e01b33a04p-2, 0x1.868aee4e41facp-3,
         0x1.6dacfc2da5ddp-4, 0x1.56654c8186b2p-5, 0x1.2c39f76e5aap-7,
         0x1.074bca90256p-9},
     .lcfs = {
         0x1.059bb3c6b7d47p-1, 0x1.27f152db25b32p-2, 0x1.f488909f0ae68p-3,
         0x1.8974b3c6ab50cp-3, 0x1.2aaf128bae7cp-3, 0x1.e2191d25c1608p-4,
         0x1.5937b0064d1p-4, 0x1.08ff1b3aff6ap-4, 0x1.5cb645aa4e2fp-5,
         0x1.f8bad281b1e4p-6},
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
         0x1.e07e05fd7316p-4, 0x1.6b4a2ea1a9ccp-6},
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
  // a geometric scheduling delay, so the service spans 39 slots (26 to 64).
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
          0x0p+0, 0x0p+0, 0x1.36ca9e83827cbp-2,
          0x1.6ba342a6150a7p-16, 0x1.88670078b1c2fp-5, 0x1.f62b24a9a585dp-15,
          0x1.73953856a1a8bp-7, 0x1.e56e801bf5487p-14, 0x1.a1087d6ca475bp-9,
          0x1.7befb0fcfbc0bp-13, 0x1.0120b9c248f58p-10, 0x1.ffd16133ddb49p-13,
          0x1.50da3a0815c55p-12, 0x1.33460fcf9aa27p-12, 0x1.cdbe081fc70cfp-14,
          0x1.50839db75a45fp-12, 0x1.4c7016c29ec3fp-15, 0x1.55a6d2997db89p-12,
          0x1.089c179268bc9p-16, 0x1.457676a5bc6b8p-12, 0x1.0e8588d976b0dp-17,
          0x1.259ca9e52e8a4p-12, 0x1.a06b1e6a51174p-18, 0x1.f95b1bb156af7p-13,
          0x1.b87e520942b4p-18, 0x1.a15087d36c5a1p-13, 0x1.04821b051480ep-17,
          0x1.4c46b557c3d64p-13, 0x1.353fb686a6dbdp-17, 0x1.00218be73e8c2p-13,
          0x1.645241be4c5b6p-17},
      .tail_mass = 0x1.6a7563f406b8p-8,
  };
  check_busy_period(service, g);
}

TEST(AnalyticGolden, BusyPeriodDeterministicTen) {
  const BusyPeriodGolden g = {
      .lambda = 0.05,  // rho = 0.5
      .len = 1000,
      .stride = 30,
      .entries = {
          0x0p+0, 0x1.56ba595b88515p-4, 0x1.134d7570b8414p-6,
          0x1.515bcff0d1238p-8, 0x1.ec2713885c52dp-10, 0x1.8b1c79efd09d4p-11,
          0x1.511420e74f23cp-12, 0x1.2be702aae3982p-13, 0x1.132993f5117b4p-14,
          0x1.02783c2483a8ap-15, 0x1.eeac8c79dace8p-17, 0x1.e087f3819305cp-18,
          0x1.d89e9ecf6068bp-19, 0x1.d5b528c26c49p-20, 0x1.d6f9d034701adp-21,
          0x1.dbe0053f15916p-22, 0x1.e40a6ab98a15p-23, 0x1.ef3d19457204bp-24,
          0x1.fd54cce486b9p-25, 0x1.07208dff0bf06p-25, 0x1.11004f6805eb4p-26,
          0x1.1c4f2ee0bb0a7p-27, 0x1.29180eb50176cp-28, 0x1.376aa2be984c8p-29,
          0x1.475b1ba717506p-30, 0x1.5901fbb8113f5p-31, 0x1.6c7c0bc20ed03p-32,
          0x1.81ea69caa970fp-33, 0x1.9972ad540ac92p-34, 0x1.b33f1e8a3f55cp-35,
          0x1.cf7efeaf9a849p-36, 0x1.ee66e0e625bbdp-37, 0x1.0818898470e7fp-37,
          0x1.1a8f0b5e48cf6p-38},
      .tail_mass = 0x1.3223p-36,
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
