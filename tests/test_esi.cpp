// ESI tests (paper §2.2): distributed CSR matrices with ghost gather, the
// preconditioner family, Krylov convergence across a parameterized
// (solver × preconditioner × team size) sweep, and the component/port layer
// including the portable interface path and framework-mediated composition.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "esi_sidl.hpp"
#include "ports_sidl.hpp"

#include "cca/core/framework.hpp"
#include "cca/esi/components.hpp"
#include "cca/esi/csr_matrix.hpp"
#include "cca/esi/krylov.hpp"
#include "cca/esi/preconditioner.hpp"
#include "cca/hydro/components.hpp"
#include "cca/testing/prop.hpp"

using namespace cca;
using namespace cca::esi;

namespace {

/// Dense reference SpMV of the 2-D Poisson operator for cross-checking.
std::vector<double> densePoissonApply(std::size_t nx, std::size_t ny,
                                      const std::vector<double>& x,
                                      double alpha, double beta) {
  const std::size_t n = nx * ny;
  std::vector<double> y(n, 0.0);
  for (std::size_t row = 0; row < n; ++row) {
    const std::size_t i = row % nx;
    const std::size_t j = row / nx;
    double s = (alpha + 4.0 * beta) * x[row];
    if (i > 0) s -= beta * x[row - 1];
    if (i + 1 < nx) s -= beta * x[row + 1];
    if (j > 0) s -= beta * x[row - nx];
    if (j + 1 < ny) s -= beta * x[row + nx];
    y[row] = s;
  }
  return y;
}

}  // namespace

// ---------------------------------------------------------------------------
// CsrMatrix
// ---------------------------------------------------------------------------

TEST(CsrMatrixTest, ApplyMatchesDenseReferenceAcrossTeamSizes) {
  for (int p : {1, 2, 3, 4}) {
    rt::Comm::run(p, [](rt::Comm& c) {
      const std::size_t nx = 7, ny = 5;
      auto A = makePoisson2D(c, nx, ny, 0.5, 2.0);
      dist::DistVector<double> x(c, A.rowDistribution());
      dist::DistVector<double> y(c, A.rowDistribution());
      std::vector<double> xg(nx * ny);
      for (std::size_t i = 0; i < xg.size(); ++i)
        xg[i] = std::sin(0.7 * static_cast<double>(i)) + 0.1;
      for (std::size_t li = 0; li < x.localSize(); ++li)
        x.local()[li] = xg[x.globalIndexOf(li)];
      A.apply(x, y);
      auto yg = y.allgatherGlobal();
      auto ref = densePoissonApply(nx, ny, xg, 0.5, 2.0);
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(yg[i], ref[i], 1e-12) << "row " << i << " p=" << c.size();
    });
  }
}

TEST(CsrMatrixTest, DuplicateEntriesAccumulate) {
  rt::Comm::run(1, [](rt::Comm& c) {
    CsrMatrix A(c, dist::Distribution::block(3, 1));
    A.add(0, 0, 1.0);
    A.add(0, 0, 2.5);
    A.add(1, 1, 1.0);
    A.add(2, 2, 1.0);
    A.assemble();
    EXPECT_DOUBLE_EQ(A.getLocal(0, 0), 3.5);
    EXPECT_DOUBLE_EQ(A.getLocal(0, 1), 0.0);
    EXPECT_EQ(A.globalNonzeros(), 3u);
  });
}

TEST(CsrMatrixTest, UsageErrors) {
  rt::Comm::run(2, [](rt::Comm& c) {
    CsrMatrix A(c, dist::Distribution::block(4, 2));
    const std::size_t notMine = c.rank() == 0 ? 3 : 0;
    EXPECT_THROW(A.add(notMine, 0, 1.0), dist::DistError);
    EXPECT_THROW(A.add(0, 99, 1.0), dist::DistError);
    dist::DistVector<double> x(c, A.rowDistribution()), y(c, A.rowDistribution());
    EXPECT_THROW(A.apply(x, y), dist::DistError);  // before assemble
    for (std::size_t li = 0; li < A.localRows(); ++li) {
      const auto row = A.rowDistribution().globalIndexOf(c.rank(), li);
      A.add(row, row, 1.0);
    }
    A.assemble();
    EXPECT_THROW(A.assemble(), dist::DistError);
    EXPECT_THROW(A.add(0, 0, 1.0), dist::DistError);
    dist::DistVector<double> bad(c, dist::Distribution::cyclic(4, c.size()));
    EXPECT_THROW(A.apply(bad, y), dist::DistError);
  });
}

TEST(CsrMatrixTest, DiagonalExtraction) {
  rt::Comm::run(2, [](rt::Comm& c) {
    auto A = makePoisson2D(c, 4, 4, 1.0, 1.0);
    auto d = A.localDiagonal();
    for (double v : d) EXPECT_DOUBLE_EQ(v, 5.0);
  });
}

TEST(CsrMatrixTest, GhostCountMatchesPartitionBoundary) {
  rt::Comm::run(4, [](rt::Comm& c) {
    const std::size_t nx = 8, ny = 8;
    auto A = makePoisson2D(c, nx, ny);
    // Block rows over a row-major grid: interior ranks border two
    // neighbouring ranks (nx ghosts each side), edge ranks one.
    const std::size_t expected = (c.rank() == 0 || c.rank() == 3) ? nx : 2 * nx;
    EXPECT_EQ(A.ghostCount(), expected);
  });
}

TEST(PropCsrMatrix, ApplyAndGetLocalMatchDenseReference) {
  // Random sparsity and matrix order, applied at p = 1..4.  Row 0 couples
  // only to the last column, so at p > 1 rank 0 holds a row of nothing but
  // ghost columns; at p = 1 (or on a rank whose rows couple only among
  // themselves) there are no ghosts, and small orders leave ranks with no
  // rows at all.
  namespace prop = cca::testing::prop;
  auto r = prop::check(
      {.runs = 40, .name = "CsrMatrix apply vs dense"},
      [](int seed) {
        prop::Rng rng(static_cast<std::uint64_t>(seed));
        const auto n = static_cast<std::size_t>(rng.intIn(1, 13));
        const double density = rng.unit();
        std::vector<double> dense(n * n, 0.0), xg(n);
        for (std::size_t i = 0; i < n; ++i) {
          xg[i] = rng.unit() - 0.5;
          for (std::size_t j = 0; j < n; ++j)
            if (rng.unit() < density) dense[i * n + j] = rng.unit() * 4.0 - 2.0;
        }
        for (std::size_t j = 0; j + 1 < n; ++j) dense[j] = 0.0;
        dense[n - 1] = 1.5;
        std::vector<double> ref(n, 0.0);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j) ref[i] += dense[i * n + j] * xg[j];

        for (int p : {1, 2, 3, 4}) {
          rt::Comm::run(p, [&](rt::Comm& c) {
            // Record mismatches and throw only after the last collective,
            // so a failing rank cannot strand its peers mid-exchange.
            std::string err;
            auto fail = [&](const std::string& what) {
              if (err.empty()) err = what + " at p=" + std::to_string(c.size());
            };
            CsrMatrix A(c, dist::Distribution::block(n, c.size()));
            const auto& rd = A.rowDistribution();
            for (std::size_t li = 0; li < A.localRows(); ++li) {
              const std::size_t row = rd.globalIndexOf(c.rank(), li);
              for (std::size_t j = 0; j < n; ++j)
                if (dense[row * n + j] != 0.0) A.add(row, j, dense[row * n + j]);
            }
            A.assemble();
            dist::DistVector<double> x(c, rd), y(c, rd);
            for (std::size_t li = 0; li < x.localSize(); ++li)
              x.local()[li] = xg[x.globalIndexOf(li)];
            // Twice: the persistent exchange buffers must not leak state.
            for (int rep = 0; rep < 2; ++rep) {
              A.apply(x, y);
              for (std::size_t li = 0; li < y.localSize(); ++li) {
                const std::size_t row = y.globalIndexOf(li);
                if (std::abs(y.local()[li] - ref[row]) > 1e-12)
                  fail("apply: row " + std::to_string(row));
              }
            }
            for (std::size_t li = 0; li < A.localRows(); ++li) {
              const std::size_t row = rd.globalIndexOf(c.rank(), li);
              for (std::size_t j = 0; j < n; ++j)
                if (A.getLocal(row, j) != dense[row * n + j])
                  fail("getLocal(" + std::to_string(row) + "," + std::to_string(j) + ")");
            }
            // Off-rank entries sit outside the owned CSR block.
            std::size_t offRank = 0;
            for (std::size_t li = 0; li < A.localRows(); ++li)
              for (std::size_t j = 0; j < n; ++j)
                if (dense[rd.globalIndexOf(c.rank(), li) * n + j] != 0.0 &&
                    rd.ownerOf(j) != c.rank())
                  ++offRank;
            if (A.values().size() + offRank != A.localNonzeros())
              fail("owned/off-rank split lost entries");
            if (!err.empty()) throw std::runtime_error(err);
          });
        }
      },
      prop::gens::intIn(1, 1 << 30));
  EXPECT_TRUE(r.ok) << r.describe();
}

// ---------------------------------------------------------------------------
// Preconditioners
// ---------------------------------------------------------------------------

// The kind is a std::string, not a const char*: gtest prints a char pointer
// with its address, which would put a per-run address into the test name.
class PrecondSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PrecondSweep, ApplyIsLinearAndNonTrivial) {
  const auto [kind, p] = GetParam();
  const std::string kindStr = kind;
  rt::Comm::run(p, [kindStr](rt::Comm& c) {
    auto A = makePoisson2D(c, 6, 6, 0.2, 1.0);
    auto M = makePreconditioner(kindStr);
    M->setUp(A);
    dist::DistVector<double> r(c, A.rowDistribution());
    dist::DistVector<double> z1(c, A.rowDistribution());
    dist::DistVector<double> z2(c, A.rowDistribution());
    for (std::size_t li = 0; li < r.localSize(); ++li)
      r.local()[li] = 1.0 + 0.3 * static_cast<double>(r.globalIndexOf(li) % 5);
    M->apply(r, z1);
    EXPECT_GT(z1.norm2(), 0.0);
    // Linearity: M(2r) = 2 M(r).
    r.scale(2.0);
    M->apply(r, z2);
    z2.axpy(-2.0, z1);
    EXPECT_NEAR(z2.norm2(), 0.0, 1e-12);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PrecondSweep,
    ::testing::Combine(::testing::Values(std::string("identity"),
                                         std::string("jacobi"),
                                         std::string("sor"),
                                         std::string("ilu0")),
                       ::testing::Values(1, 2, 4)));

TEST(Preconditioners, JacobiIsExactForDiagonalMatrix) {
  rt::Comm::run(2, [](rt::Comm& c) {
    CsrMatrix A(c, dist::Distribution::block(6, 2));
    for (std::size_t li = 0; li < A.localRows(); ++li) {
      const auto row = A.rowDistribution().globalIndexOf(c.rank(), li);
      A.add(row, row, static_cast<double>(row + 1));
    }
    A.assemble();
    JacobiPreconditioner M;
    M.setUp(A);
    dist::DistVector<double> r(c, A.rowDistribution());
    dist::DistVector<double> z(c, A.rowDistribution());
    r.fill(1.0);
    M.apply(r, z);
    for (std::size_t li = 0; li < z.localSize(); ++li)
      EXPECT_DOUBLE_EQ(z.local()[li],
                       1.0 / static_cast<double>(z.globalIndexOf(li) + 1));
  });
}

TEST(Preconditioners, Ilu0IsExactSolveOnSerialTridiagonal) {
  // ILU(0) of a tridiagonal matrix is a complete LU: apply == A^{-1}.
  rt::Comm::run(1, [](rt::Comm& c) {
    auto A = makeConvectionDiffusion1D(c, 12, 1.0, 0.4);
    Ilu0Preconditioner M;
    M.setUp(A);
    dist::DistVector<double> x(c, A.rowDistribution());
    dist::DistVector<double> b(c, A.rowDistribution());
    dist::DistVector<double> z(c, A.rowDistribution());
    for (std::size_t i = 0; i < x.localSize(); ++i)
      x.local()[i] = 0.5 + static_cast<double>(i % 3);
    A.apply(x, b);
    M.apply(b, z);
    z.axpy(-1.0, x);
    EXPECT_NEAR(z.norm2(), 0.0, 1e-10);
  });
}

TEST(Preconditioners, ZeroDiagonalRejected) {
  rt::Comm::run(1, [](rt::Comm& c) {
    CsrMatrix A(c, dist::Distribution::block(2, 1));
    A.add(0, 1, 1.0);
    A.add(1, 0, 1.0);
    A.assemble();
    JacobiPreconditioner j;
    EXPECT_THROW(j.setUp(A), dist::DistError);
    Ilu0Preconditioner ilu;
    EXPECT_THROW(ilu.setUp(A), dist::DistError);
  });
}

TEST(Preconditioners, FactoryNamesAndErrors) {
  EXPECT_EQ(makePreconditioner("sor")->name(), "sor");
  EXPECT_THROW(makePreconditioner("amg"), dist::DistError);
  EXPECT_THROW(SorPreconditioner(2.5), dist::DistError);
}

// ---------------------------------------------------------------------------
// Krylov solvers (substrate templates)
// ---------------------------------------------------------------------------

namespace {

struct SolveSetup {
  const char* algo;     // "cg" | "bicgstab" | "gmres"
  const char* precond;  // preconditioner kind
  int ranks;
};

// Names the case by value, e.g. "(cg, jacobi, 1)"; the default printer dumps
// the struct's bytes, pointer addresses included, which change from run to run.
void PrintTo(const SolveSetup& s, std::ostream* os) {
  *os << "(" << s.algo << ", " << s.precond << ", " << s.ranks << ")";
}

SolveReport runSolve(const SolveSetup& s, const CsrMatrix& A,
                     const dist::DistVector<double>& b,
                     dist::DistVector<double>& x) {
  auto M = makePreconditioner(s.precond);
  M->setUp(A);
  auto apply = [&](const dist::DistVector<double>& in,
                   dist::DistVector<double>& out) { A.apply(in, out); };
  auto prec = [&](const dist::DistVector<double>& in,
                  dist::DistVector<double>& out) { M->apply(in, out); };
  KrylovOptions opt;
  opt.rtol = 1e-10;
  opt.maxIterations = 2000;
  if (std::string(s.algo) == "cg") return cg(apply, prec, b, x, opt);
  if (std::string(s.algo) == "bicgstab") return bicgstab(apply, prec, b, x, opt);
  return gmres(apply, prec, b, x, opt);
}

}  // namespace

class KrylovSweep : public ::testing::TestWithParam<SolveSetup> {};

TEST_P(KrylovSweep, SolvesPoissonToTolerance) {
  const SolveSetup s = GetParam();
  rt::Comm::run(s.ranks, [&](rt::Comm& c) {
    const std::size_t nx = 12, ny = 12;
    auto A = makePoisson2D(c, nx, ny, 0.1, 1.0);
    dist::DistVector<double> xTrue(c, A.rowDistribution());
    dist::DistVector<double> b(c, A.rowDistribution());
    dist::DistVector<double> x(c, A.rowDistribution());
    for (std::size_t li = 0; li < xTrue.localSize(); ++li)
      xTrue.local()[li] =
          std::cos(0.31 * static_cast<double>(xTrue.globalIndexOf(li)));
    A.apply(xTrue, b);
    auto rep = runSolve(s, A, b, x);
    EXPECT_EQ(rep.status, SolveStatus::Converged)
        << s.algo << "+" << s.precond << ": " << rep.iterations
        << " its, |r|=" << rep.residualNorm;
    x.axpy(-1.0, xTrue);
    EXPECT_LT(x.norm2() / xTrue.norm2(), 1e-7);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KrylovSweep,
    ::testing::Values(SolveSetup{"cg", "identity", 1},
                      SolveSetup{"cg", "jacobi", 1},
                      SolveSetup{"cg", "sor", 2},
                      SolveSetup{"cg", "ilu0", 3},
                      SolveSetup{"bicgstab", "identity", 1},
                      SolveSetup{"bicgstab", "jacobi", 2},
                      SolveSetup{"bicgstab", "ilu0", 2},
                      SolveSetup{"gmres", "identity", 1},
                      SolveSetup{"gmres", "jacobi", 2},
                      SolveSetup{"gmres", "sor", 4},
                      SolveSetup{"gmres", "ilu0", 1}));

TEST(Krylov, NonsymmetricSystemSolvedByGmres) {
  rt::Comm::run(2, [](rt::Comm& c) {
    auto A = makeConvectionDiffusion1D(c, 64, 1.0, 1.5);
    dist::DistVector<double> xTrue(c, A.rowDistribution());
    dist::DistVector<double> b(c, A.rowDistribution());
    dist::DistVector<double> x(c, A.rowDistribution());
    xTrue.fill(1.0);
    A.apply(xTrue, b);
    KrylovOptions opt;
    opt.rtol = 1e-10;
    opt.maxIterations = 500;
    auto apply = [&](const dist::DistVector<double>& in,
                     dist::DistVector<double>& out) { A.apply(in, out); };
    auto ident = [](const dist::DistVector<double>& in,
                    dist::DistVector<double>& out) { out.assignFrom(in); };
    auto rep = gmres(apply, ident, b, x, opt);
    EXPECT_EQ(rep.status, SolveStatus::Converged);
    x.axpy(-1.0, xTrue);
    EXPECT_LT(x.norm2(), 1e-6);
  });
}

TEST(Krylov, PreconditioningReducesIterations) {
  rt::Comm::run(1, [](rt::Comm& c) {
    auto A = makePoisson2D(c, 16, 16);
    dist::DistVector<double> b(c, A.rowDistribution());
    b.fill(1.0);
    KrylovOptions opt;
    opt.rtol = 1e-8;
    opt.maxIterations = 2000;
    auto apply = [&](const dist::DistVector<double>& in,
                     dist::DistVector<double>& out) { A.apply(in, out); };

    dist::DistVector<double> x1(c, A.rowDistribution());
    auto ident = [](const dist::DistVector<double>& in,
                    dist::DistVector<double>& out) { out.assignFrom(in); };
    auto plain = cg(apply, ident, b, x1, opt);

    Ilu0Preconditioner M;
    M.setUp(A);
    dist::DistVector<double> x2(c, A.rowDistribution());
    auto prec = [&](const dist::DistVector<double>& in,
                    dist::DistVector<double>& out) { M.apply(in, out); };
    auto strong = cg(apply, prec, b, x2, opt);

    EXPECT_EQ(plain.status, SolveStatus::Converged);
    EXPECT_EQ(strong.status, SolveStatus::Converged);
    EXPECT_LT(strong.iterations, plain.iterations);
  });
}

TEST(Krylov, MaxIterationsReported) {
  rt::Comm::run(1, [](rt::Comm& c) {
    auto A = makePoisson2D(c, 20, 20);
    dist::DistVector<double> b(c, A.rowDistribution());
    dist::DistVector<double> x(c, A.rowDistribution());
    b.fill(1.0);
    KrylovOptions opt;
    opt.rtol = 1e-14;
    opt.maxIterations = 3;
    auto apply = [&](const dist::DistVector<double>& in,
                     dist::DistVector<double>& out) { A.apply(in, out); };
    auto ident = [](const dist::DistVector<double>& in,
                    dist::DistVector<double>& out) { out.assignFrom(in); };
    auto rep = cg(apply, ident, b, x, opt);
    EXPECT_EQ(rep.status, SolveStatus::MaxIterations);
    EXPECT_EQ(rep.iterations, 3);
  });
}

TEST(Krylov, ZeroRhsConvergesImmediately) {
  rt::Comm::run(1, [](rt::Comm& c) {
    auto A = makePoisson2D(c, 4, 4);
    dist::DistVector<double> b(c, A.rowDistribution());
    dist::DistVector<double> x(c, A.rowDistribution());
    auto apply = [&](const dist::DistVector<double>& in,
                     dist::DistVector<double>& out) { A.apply(in, out); };
    auto ident = [](const dist::DistVector<double>& in,
                    dist::DistVector<double>& out) { out.assignFrom(in); };
    auto rep = cg(apply, ident, b, x, KrylovOptions{});
    EXPECT_EQ(rep.status, SolveStatus::Converged);
    EXPECT_EQ(rep.iterations, 0);
  });
}

TEST(Krylov, CgWithoutPreconditionerIsBitwiseTheIdentityOne) {
  // z ≡ r with one r·r reduction must reproduce the copying identity's
  // ‖r‖ and r·z exactly, on every team size and on both solver-port paths.
  auto sameBits = [](const dist::DistVector<double>& a,
                     const dist::DistVector<double>& b) {
    return std::memcmp(a.local().data(), b.local().data(),
                       a.localSize() * sizeof(double)) == 0;
  };
  for (int p : {1, 2, 3}) {
    rt::Comm::run(p, [&](rt::Comm& c) {
      auto A = std::make_shared<CsrMatrix>(makePoisson2D(c, 9, 7, 0.3, 1.0));
      dist::DistVector<double> b(c, A->rowDistribution());
      for (std::size_t li = 0; li < b.localSize(); ++li)
        b.local()[li] = std::cos(0.3 * static_cast<double>(b.globalIndexOf(li)));
      KrylovOptions opt;
      opt.rtol = 1e-10;
      auto apply = [&](const dist::DistVector<double>& in,
                       dist::DistVector<double>& out) { A->apply(in, out); };
      IdentityPreconditioner M;
      M.setUp(*A);
      auto identity = [&](const dist::DistVector<double>& in,
                          dist::DistVector<double>& out) { M.apply(in, out); };

      dist::DistVector<double> xNone(c, A->rowDistribution());
      dist::DistVector<double> xIdent(c, A->rowDistribution());
      const auto none = cg(apply, NoPreconditioner{}, b, xNone, opt);
      const auto ident = cg(apply, identity, b, xIdent, opt);
      EXPECT_EQ(none.status, SolveStatus::Converged);
      EXPECT_GT(none.iterations, 5);
      EXPECT_EQ(none.iterations, ident.iterations);
      EXPECT_EQ(std::memcmp(&none.residualNorm, &ident.residualNorm, sizeof(double)), 0);
      EXPECT_TRUE(sameBits(xNone, xIdent)) << "p=" << c.size();

      // The solver port: unconnected preconditioner vs an identity one, on
      // the fast and the portable path.
      auto opPort = std::make_shared<comp::CsrOperatorPort>(A);
      auto identPort = std::make_shared<comp::PrecondPort>("identity");
      identPort->setUp(opPort);
      auto bPort = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
      bPort->vec().assignFrom(b);
      for (bool portable : {false, true}) {
        auto solveWith = [&](std::shared_ptr<::sidlx::esi::Preconditioner> prec) {
          comp::KrylovSolverPort solver(comp::KrylovSolverPort::Algo::Cg);
          solver.setForcePortablePath(portable);
          solver.setOperator(opPort);
          solver.setPreconditioner(std::move(prec));
          solver.setTolerance(opt.rtol);
          auto x = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
          std::shared_ptr<::sidlx::esi::Vector> xi = x;
          EXPECT_EQ(solver.solve(bPort, xi), ::sidlx::esi::SolveStatus::CONVERGED);
          return std::make_pair(solver.iterationCount(), x);
        };
        const auto [itsNone, xPortNone] = solveWith(nullptr);
        const auto [itsIdent, xPortIdent] = solveWith(identPort);
        EXPECT_EQ(itsNone, none.iterations);
        EXPECT_EQ(itsNone, itsIdent);
        EXPECT_TRUE(sameBits(xPortNone->vec(), xPortIdent->vec()))
            << "p=" << c.size() << " portable=" << portable;
        EXPECT_TRUE(sameBits(xPortNone->vec(), xNone));
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Component / port layer
// ---------------------------------------------------------------------------

TEST(EsiPorts, DistVectorPortImplementsInterface) {
  rt::Comm::run(2, [](rt::Comm& c) {
    auto v = std::make_shared<comp::DistVectorPort>(
        c, dist::Distribution::block(10, c.size()));
    v->fill(3.0);
    EXPECT_EQ(v->globalSize(), 10);
    EXPECT_DOUBLE_EQ(v->norm2(), std::sqrt(90.0));
    auto w = std::dynamic_pointer_cast<comp::DistVectorPort>(v->clone());
    ASSERT_NE(w, nullptr);
    w->scale(2.0);
    EXPECT_DOUBLE_EQ(v->dot(w), 180.0);
    v->axpy(1.0, w);  // v = 9
    EXPECT_DOUBLE_EQ(v->norm2(), std::sqrt(810.0));
    auto vals = v->localValues();
    EXPECT_EQ(vals.size(), v->vec().localSize());
    vals.fill(1.0);
    v->setLocalValues(vals);
    EXPECT_DOUBLE_EQ(v->norm2(), std::sqrt(10.0));
    EXPECT_THROW(v->axpy(1.0, nullptr), cca::sidl::PreconditionException);
    EXPECT_THROW(v->setLocalValues(cca::sidl::Array<double>({99})),
                 cca::sidl::PreconditionException);
  });
}

TEST(EsiPorts, SolverPortFastAndPortablePathsAgree) {
  rt::Comm::run(2, [](rt::Comm& c) {
    auto A = std::make_shared<CsrMatrix>(makePoisson2D(c, 10, 10, 0.3, 1.0));
    auto opPort = std::make_shared<comp::CsrOperatorPort>(A);
    auto precond = std::make_shared<comp::PrecondPort>("jacobi");
    std::shared_ptr<::sidlx::esi::Operator> opIface = opPort;
    precond->setUp(opIface);

    auto b = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
    for (std::size_t li = 0; li < b->vec().localSize(); ++li)
      b->vec().local()[li] =
          std::sin(0.2 * static_cast<double>(b->vec().globalIndexOf(li)));

    auto solveWith = [&](bool portable) {
      comp::KrylovSolverPort solver(comp::KrylovSolverPort::Algo::Cg);
      solver.setForcePortablePath(portable);
      solver.setOperator(opPort);
      solver.setPreconditioner(precond);
      solver.setTolerance(1e-10);
      solver.setMaxIterations(500);
      auto x = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
      std::shared_ptr<::sidlx::esi::Vector> xi = x;
      auto status = solver.solve(b, xi);
      EXPECT_EQ(status, ::sidlx::esi::SolveStatus::CONVERGED);
      return std::make_tuple(solver.iterationCount(), x);
    };

    auto [itsFast, xFast] = solveWith(false);
    auto [itsPort, xPort] = solveWith(true);
    EXPECT_EQ(itsFast, itsPort);  // identical algorithm on both paths
    xPort->axpy(-1.0, xFast);
    EXPECT_NEAR(xPort->norm2(), 0.0, 1e-9);
  });
}

TEST(EsiPorts, OperatorPortMetadataAndErrors) {
  rt::Comm::run(2, [](rt::Comm& c) {
    auto A = std::make_shared<CsrMatrix>(makePoisson2D(c, 4, 4, 1.0, 1.0));
    comp::CsrOperatorPort op(A);
    EXPECT_EQ(op.rows(), 16);
    EXPECT_EQ(op.cols(), 16);
    auto d = op.diagonal();
    for (std::size_t i = 0; i < d.size(); ++i) EXPECT_DOUBLE_EQ(d(i), 5.0);
    EXPECT_THROW(op.getElement(-1, 0), cca::sidl::PreconditionException);
    EXPECT_THROW(op.getElement(0, 99), cca::sidl::PreconditionException);
    EXPECT_EQ(op.sidlTypeName(), "esi.MatrixAccess");
  });
}

TEST(EsiPorts, SolverErrorsAndMetadata) {
  rt::Comm::run(1, [](rt::Comm& c) {
    comp::KrylovSolverPort solver(comp::KrylovSolverPort::Algo::Gmres);
    EXPECT_EQ(solver.name(), "gmres");
    auto b = std::make_shared<comp::DistVectorPort>(
        c, dist::Distribution::block(4, 1));
    std::shared_ptr<::sidlx::esi::Vector> x = b;
    EXPECT_THROW(solver.solve(b, x), cca::sidl::PreconditionException);
    EXPECT_THROW(solver.setOperator(nullptr), cca::sidl::PreconditionException);
  });
}

TEST(EsiPorts, PrecondPortRequiresSetUp) {
  rt::Comm::run(1, [](rt::Comm& c) {
    comp::PrecondPort p("jacobi");
    EXPECT_THROW(p.setUp(nullptr), cca::sidl::PreconditionException);
    EXPECT_EQ(p.name(), "jacobi");
    EXPECT_FALSE(p.isSetUp());
    auto r = std::make_shared<comp::DistVectorPort>(
        c, dist::Distribution::block(4, 1));
    std::shared_ptr<::sidlx::esi::Vector> z = r;
    EXPECT_THROW(p.apply(r, z), cca::sidl::PreconditionException);
  });
}

TEST(EsiComponents, FrameworkComposedSolverPullsConnectedPreconditioner) {
  // The Fig. 1 solver↔preconditioner pair composed through the framework:
  // the solver's uses port supplies the preconditioner at solve time.
  rt::Comm::run(2, [](rt::Comm& c) {
    core::Framework fw;
    comp::registerEsiComponents(fw);
    EXPECT_EQ(fw.repository().findProviders("esi.LinearSolver").size(), 3u);
    EXPECT_EQ(fw.repository().findProviders("esi.Preconditioner").size(), 4u);

    auto solverId = fw.createInstance("solver", "esi.CgSolver");
    auto precId = fw.createInstance("prec", "esi.Ilu0Precond");
    fw.connect(solverId, "preconditioner", precId, "preconditioner");

    auto A = std::make_shared<CsrMatrix>(makePoisson2D(c, 8, 8, 0.2, 1.0));
    auto opPort = std::make_shared<comp::CsrOperatorPort>(A);

    auto solver = std::dynamic_pointer_cast<comp::KrylovSolverComponent>(
                      fw.instanceObject(solverId))
                      ->port();
    solver->setOperator(opPort);
    solver->setTolerance(1e-9);
    solver->setMaxIterations(500);

    // Prepare the connected preconditioner instance through *its* port
    // surface, as an application assembly step would.
    auto precPorts = fw.providedPorts(precId);
    ASSERT_EQ(precPorts.size(), 1u);
    auto precObj = std::dynamic_pointer_cast<comp::PreconditionerComponent>(
        fw.instanceObject(precId));
    ASSERT_NE(precObj, nullptr);

    auto b = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
    b->fill(1.0);
    auto x = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
    std::shared_ptr<::sidlx::esi::Vector> xi = x;

    // The connected preconditioner was never set up by the assembly: the
    // solver sets it up against the operator it is solving.
    auto precPort = std::dynamic_pointer_cast<comp::PrecondPort>(
        fw.providedPort(precId, "preconditioner"));
    ASSERT_NE(precPort, nullptr);
    EXPECT_FALSE(precPort->isSetUp());
    EXPECT_EQ(solver->solve(b, xi), ::sidlx::esi::SolveStatus::CONVERGED);
    EXPECT_EQ(precPort->matrixPtr(), A);

    // An explicitly supplied preconditioner takes precedence over the port.
    x->fill(0.0);
    auto explicitPrec = std::make_shared<comp::PrecondPort>("ilu0");
    std::shared_ptr<::sidlx::esi::Operator> opIface = opPort;
    explicitPrec->setUp(opIface);
    solver->setPreconditioner(explicitPrec);

    auto status = solver->solve(b, xi);
    EXPECT_EQ(status, ::sidlx::esi::SolveStatus::CONVERGED);
    EXPECT_GT(solver->iterationCount(), 0);
  });
}

TEST(EsiComponents, ConnectedJacobiFollowsTheOperatorAcrossDtChange) {
  // The Fig. 1 heat→solver→preconditioner chain with nothing but ports
  // connected: the solver sets the Jacobi preconditioner up on the first
  // step and again for the matrix rebuilt when dt changes.
  for (int p : {1, 2}) {
    rt::Comm::run(p, [](rt::Comm& c) {
      core::Framework fw;
      hydro::comp::registerHydroComponents(fw, c, mesh::Mesh1D(64, 0.0, 1.0));
      comp::registerEsiComponents(fw);
      core::BuilderService builder(fw);
      builder.create("heat", "hydro.SemiImplicit");
      builder.create("solver", "esi.CgSolver");
      builder.create("precond", "esi.JacobiPrecond");
      builder.connect("heat", "linsolver", "solver", "solver");
      builder.connect("solver", "preconditioner", "precond", "preconditioner");

      const auto heatId = fw.lookupInstance("heat");
      auto ts = std::dynamic_pointer_cast<::sidlx::hydro::TimeStepPort>(
          fw.providedPort(heatId, "timestep"));
      auto precPort = std::dynamic_pointer_cast<comp::PrecondPort>(
          fw.providedPort(fw.lookupInstance("precond"), "preconditioner"));
      ASSERT_NE(ts, nullptr);
      ASSERT_NE(precPort, nullptr);
      auto& model = *std::dynamic_pointer_cast<hydro::comp::SemiImplicitComponent>(
                         fw.instanceObject(heatId))
                         ->model();
      const double h0 = model.totalHeat();

      // One step; returns the matrix the preconditioner was set up against.
      auto step = [&](double dt) {
        ts->step(dt);  // throws unless the solve converged
        EXPECT_GT(model.lastIterationCount(), 0);
        EXPECT_NEAR(model.totalHeat(), h0, 1e-9);
        EXPECT_TRUE(precPort->isSetUp());
        return precPort->matrixPtr();
      };
      const auto first = step(1e-3);
      EXPECT_EQ(step(1e-3), first);  // same operator: no new setup
      EXPECT_NE(step(4e-3), first);  // dt changed: rebuilt matrix
      EXPECT_EQ(ts->stepsTaken(), 3);
    });
  }
}

TEST(EsiComponents, SolverSwapChangesAlgorithmNotAnswer) {
  // §2.2: "to experiment more easily with multiple solution strategies" —
  // swap the solver component, keep everything else.
  rt::Comm::run(1, [](rt::Comm& c) {
    auto A = std::make_shared<CsrMatrix>(makePoisson2D(c, 10, 10, 0.4, 1.0));
    auto opPort = std::make_shared<comp::CsrOperatorPort>(A);
    auto b = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
    b->fill(1.0);

    std::vector<std::vector<double>> answers;
    for (auto algo : {comp::KrylovSolverPort::Algo::Cg,
                      comp::KrylovSolverPort::Algo::BiCgStab,
                      comp::KrylovSolverPort::Algo::Gmres}) {
      comp::KrylovSolverPort solver(algo);
      solver.setOperator(opPort);
      solver.setTolerance(1e-11);
      solver.setMaxIterations(1000);
      auto x = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
      std::shared_ptr<::sidlx::esi::Vector> xi = x;
      EXPECT_EQ(solver.solve(b, xi), ::sidlx::esi::SolveStatus::CONVERGED);
      auto vals = x->localValues();
      answers.emplace_back(vals.data().begin(), vals.data().end());
    }
    for (std::size_t i = 1; i < answers.size(); ++i)
      for (std::size_t k = 0; k < answers[0].size(); ++k)
        EXPECT_NEAR(answers[i][k], answers[0][k], 1e-7);
  });
}
