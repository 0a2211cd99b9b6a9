// Figure 7: the simple shot models — rectangular (b=0), triangular (b=1),
// sublinear (b<1) and superlinear (b>1) flow-rate functions.
//
// Prints each shot's profile X(u) for a unit flow (S=1, D=1) plus the
// variance factor (b+1)^2/(2b+1) that multiplies lambda*E[S^2/D] in
// Corollary 2, and checks both against their closed forms.
#include <cstdio>

#include "common.hpp"
#include "core/quadrature.hpp"
#include "core/shot.hpp"

FBM_BENCH(fig07_shot_shapes) {
  using namespace fbm;
  bench::print_header("Figure 7: shot shapes (unit flow, S=1, D=1)");

  const double bs[] = {0.0, 0.5, 1.0, 2.0};
  const char* labels[] = {"(a) rectangular b=0", "(c) sublinear b=0.5",
                          "(b) triangular b=1", "(d) superlinear b=2"};

  std::printf("%-8s", "u");
  for (const char* l : labels) std::printf(" %20s", l);
  std::printf("\n");
  for (double u = 0.0; u <= 1.0001; u += 0.1) {
    std::printf("%-8.1f", u);
    for (double b : bs) {
      std::printf(" %20.3f", core::PowerShot(b).value(u, 1.0, 1.0));
    }
    std::printf("\n");
  }

  std::printf("\nvariance factor (b+1)^2/(2b+1) relative to rectangular:\n");
  for (double b : bs) {
    std::printf("  b=%.1f  factor %.3f\n", b,
                core::PowerShot(b).variance_factor());
  }

  std::printf("\n");
  for (double b : bs) {
    const core::PowerShot shot(b);
    const double mass = core::integrate_panels(
        [&](double u) { return shot.value(u, 1.0, 1.0); }, 0.0, 1.0, 64);
    char label[64];
    std::snprintf(label, sizeof label, "integral of X(u), b=%g", b);
    ctx.check(label, mass, 1.0 - 1e-6, 1.0 + 1e-6,
              "eq. (5): every shot integrates to S=1, to quadrature error");
  }
  const double factors[][2] = {{0.0, 1.0}, {1.0, 4.0 / 3.0}, {2.0, 9.0 / 5.0}};
  for (const auto& [b, factor] : factors) {
    char label[64];
    std::snprintf(label, sizeof label, "variance factor, b=%g", b);
    ctx.check(label, core::PowerShot(b).variance_factor(), factor, factor,
              "Section V-D: 1, 4/3, 9/5 for b=0,1,2");
  }
  return 0;
}
