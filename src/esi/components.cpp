#include "cca/esi/components.hpp"

#include <algorithm>

#include "cca/core/framework.hpp"
#include "cca/sidl/exceptions.hpp"

namespace cca::esi::comp {

using ::cca::sidl::Array;
using ::cca::sidl::PreconditionException;

namespace {

/// Fast-path peer resolution: the underlying DistVector when the peer is a
/// DistVectorPort, nullptr otherwise.
dist::DistVector<double>* concreteVec(
    const std::shared_ptr<::sidlx::esi::Vector>& x) {
  if (auto p = std::dynamic_pointer_cast<DistVectorPort>(x)) return &p->vec();
  return nullptr;
}

void requireVector(const std::shared_ptr<::sidlx::esi::Vector>& x,
                   const char* what) {
  if (!x) throw PreconditionException(std::string(what) + ": null vector");
}

}  // namespace

// ---------------------------------------------------------------------------
// DistVectorPort
// ---------------------------------------------------------------------------

std::int64_t DistVectorPort::globalSize() {
  return static_cast<std::int64_t>(v_->globalSize());
}
std::int64_t DistVectorPort::localSize() {
  return static_cast<std::int64_t>(v_->localSize());
}
void DistVectorPort::zero() { v_->fill(0.0); }
void DistVectorPort::fill(double alpha) { v_->fill(alpha); }
void DistVectorPort::scale(double alpha) { v_->scale(alpha); }

void DistVectorPort::axpy(double alpha,
                          const std::shared_ptr<::sidlx::esi::Vector>& x) {
  requireVector(x, "axpy");
  if (auto* xv = concreteVec(x)) {
    v_->axpy(alpha, *xv);
    return;
  }
  // Portable path: pull the peer's local values through the interface.
  Array<double> vals = x->localValues();
  if (vals.size() != v_->localSize())
    throw PreconditionException("axpy: nonconformal vectors");
  auto mine = v_->local();
  const auto theirs = vals.data();
  for (std::size_t i = 0; i < mine.size(); ++i) mine[i] += alpha * theirs[i];
}

double DistVectorPort::dot(const std::shared_ptr<::sidlx::esi::Vector>& x) {
  requireVector(x, "dot");
  if (auto* xv = concreteVec(x)) return v_->dot(*xv);
  Array<double> vals = x->localValues();
  if (vals.size() != v_->localSize())
    throw PreconditionException("dot: nonconformal vectors");
  double s = 0.0;
  const auto mine = v_->local();
  const auto theirs = vals.data();
  for (std::size_t i = 0; i < mine.size(); ++i) s += mine[i] * theirs[i];
  return v_->comm().allreduce(s, rt::Sum{});
}

double DistVectorPort::norm2() { return v_->norm2(); }

Array<double> DistVectorPort::localValues() {
  const auto local = v_->local();
  return Array<double>::fromData({local.size()},
                                 std::vector<double>(local.begin(), local.end()));
}

void DistVectorPort::setLocalValues(const Array<double>& values) {
  if (values.size() != v_->localSize())
    throw PreconditionException("setLocalValues: size " +
                                std::to_string(values.size()) + " != local size " +
                                std::to_string(v_->localSize()));
  std::copy(values.data().begin(), values.data().end(), v_->local().begin());
}

std::shared_ptr<::sidlx::esi::Vector> DistVectorPort::clone() {
  auto copy = std::make_shared<dist::DistVector<double>>(v_->cloneZero());
  copy->assignFrom(*v_);
  return std::make_shared<DistVectorPort>(std::move(copy));
}

// ---------------------------------------------------------------------------
// CsrOperatorPort
// ---------------------------------------------------------------------------

std::int64_t CsrOperatorPort::rows() {
  return static_cast<std::int64_t>(A_->globalRows());
}
std::int64_t CsrOperatorPort::cols() {
  return static_cast<std::int64_t>(A_->globalRows());
}

void CsrOperatorPort::apply(const std::shared_ptr<::sidlx::esi::Vector>& x,
                            std::shared_ptr<::sidlx::esi::Vector>& y) {
  requireVector(x, "apply");
  requireVector(y, "apply");
  auto* xv = concreteVec(x);
  auto* yv = concreteVec(y);
  if (xv && yv) {
    A_->apply(*xv, *yv);
    return;
  }
  // Portable path: stage through conformal temporaries.
  dist::DistVector<double> tx(A_->comm(), A_->rowDistribution());
  dist::DistVector<double> ty(A_->comm(), A_->rowDistribution());
  Array<double> vals = x->localValues();
  if (vals.size() != tx.localSize())
    throw PreconditionException("apply: nonconformal x");
  std::copy(vals.data().begin(), vals.data().end(), tx.local().begin());
  A_->apply(tx, ty);
  y->setLocalValues(Array<double>::fromData(
      {ty.localSize()},
      std::vector<double>(ty.local().begin(), ty.local().end())));
}

double CsrOperatorPort::getElement(std::int64_t row, std::int64_t col) {
  if (row < 0 || col < 0 ||
      static_cast<std::size_t>(row) >= A_->globalRows() ||
      static_cast<std::size_t>(col) >= A_->globalRows())
    throw PreconditionException("getElement: index out of range");
  return A_->getLocal(static_cast<std::size_t>(row),
                      static_cast<std::size_t>(col));
}

Array<double> CsrOperatorPort::diagonal() {
  auto d = A_->localDiagonal();
  return Array<double>::fromVector(std::move(d));
}

// ---------------------------------------------------------------------------
// PrecondPort
// ---------------------------------------------------------------------------

void PrecondPort::setUp(const std::shared_ptr<::sidlx::esi::Operator>& A) {
  if (!A) throw PreconditionException("setUp: null operator");
  auto csr = std::dynamic_pointer_cast<CsrOperatorPort>(A);
  if (!csr)
    throw PreconditionException(
        "setUp: preconditioner '" + impl_->name() +
        "' needs matrix access to a CsrOperatorPort-backed operator");
  matrix_ = csr->matrixPtr();
  impl_->setUp(*matrix_);
}

void PrecondPort::apply(const std::shared_ptr<::sidlx::esi::Vector>& r,
                        std::shared_ptr<::sidlx::esi::Vector>& z) {
  if (!matrix_) throw PreconditionException("apply: setUp was not called");
  requireVector(r, "precond apply");
  requireVector(z, "precond apply");
  auto* rv = concreteVec(r);
  auto* zv = concreteVec(z);
  if (rv && zv) {
    impl_->apply(*rv, *zv);
    return;
  }
  dist::DistVector<double> tr(matrix_->comm(), matrix_->rowDistribution());
  dist::DistVector<double> tz(matrix_->comm(), matrix_->rowDistribution());
  Array<double> vals = r->localValues();
  if (vals.size() != tr.localSize())
    throw PreconditionException("precond apply: nonconformal r");
  std::copy(vals.data().begin(), vals.data().end(), tr.local().begin());
  impl_->apply(tr, tz);
  z->setLocalValues(Array<double>::fromData(
      {tz.localSize()},
      std::vector<double>(tz.local().begin(), tz.local().end())));
}

// ---------------------------------------------------------------------------
// KrylovSolverPort
// ---------------------------------------------------------------------------

namespace {

/// Portable-path vector: satisfies the KrylovVector concept by calling
/// through the esi.Vector interface (possibly across a proxy).
class IfaceVec {
 public:
  explicit IfaceVec(std::shared_ptr<::sidlx::esi::Vector> v) : v_(std::move(v)) {}

  [[nodiscard]] double dot(const IfaceVec& o) const { return v_->dot(o.v_); }
  [[nodiscard]] double norm2() const { return v_->norm2(); }
  void axpy(double a, const IfaceVec& o) { v_->axpy(a, o.v_); }
  void scale(double a) { v_->scale(a); }
  void fill(double a) { v_->fill(a); }
  [[nodiscard]] IfaceVec cloneZero() const {
    auto c = v_->clone();
    c->zero();
    return IfaceVec(std::move(c));
  }
  void assignFrom(const IfaceVec& o) { v_->setLocalValues(o.v_->localValues()); }

  [[nodiscard]] const std::shared_ptr<::sidlx::esi::Vector>& get() const {
    return v_;
  }

 private:
  std::shared_ptr<::sidlx::esi::Vector> v_;
};

::sidlx::esi::SolveStatus toSidl(SolveStatus s) {
  switch (s) {
    case SolveStatus::Converged: return ::sidlx::esi::SolveStatus::CONVERGED;
    case SolveStatus::Diverged: return ::sidlx::esi::SolveStatus::DIVERGED;
    case SolveStatus::MaxIterations:
      return ::sidlx::esi::SolveStatus::MAX_ITERATIONS;
    case SolveStatus::Breakdown: return ::sidlx::esi::SolveStatus::BREAKDOWN;
  }
  return ::sidlx::esi::SolveStatus::BREAKDOWN;
}

}  // namespace

void KrylovSolverPort::setOperator(
    const std::shared_ptr<::sidlx::esi::Operator>& A) {
  if (!A) throw PreconditionException("setOperator: null operator");
  ++mutations_;
  op_ = A;
}

void KrylovSolverPort::setPreconditioner(
    const std::shared_ptr<::sidlx::esi::Preconditioner>& M) {
  ++mutations_;
  precond_ = M;  // null resets to identity / connected port
}

std::string KrylovSolverPort::name() {
  switch (algo_) {
    case Algo::Cg: return "cg";
    case Algo::BiCgStab: return "bicgstab";
    case Algo::Gmres: return "gmres";
  }
  return "?";
}

std::shared_ptr<::sidlx::esi::Preconditioner>
KrylovSolverPort::currentPreconditioner(bool& checkedOut) {
  checkedOut = false;
  if (precond_) return precond_;
  if (svc_ && !precondUsesPort_.empty()) {
    // The preconditioner is optional: one non-blocking probe per solve, so
    // a provider connected between solves is picked up by the next one,
    // and an unconnected port solves unpreconditioned without waiting.
    auto p = svc_->tryGetPortAs<::sidlx::esi::Preconditioner>(precondUsesPort_);
    checkedOut = p != nullptr;
    return p;
  }
  return nullptr;
}

::sidlx::esi::SolveStatus KrylovSolverPort::solve(
    const std::shared_ptr<::sidlx::esi::Vector>& b,
    std::shared_ptr<::sidlx::esi::Vector>& x) {
  if (!op_) throw PreconditionException("solve: setOperator was not called");
  requireVector(b, "solve");
  requireVector(x, "solve");
  ++mutations_;  // the solve report is part of the checkpointable state

  bool checkedOut = false;
  auto M = currentPreconditioner(checkedOut);
  struct PortGuard {
    core::Services* svc;
    const std::string* port;
    bool active;
    ~PortGuard() {
      if (active) svc->releasePort(*port);
    }
  } guard{svc_, &precondUsesPort_, checkedOut};

  // Fast path: everything concrete, no interface hops in the iteration.
  auto csrOp = std::dynamic_pointer_cast<CsrOperatorPort>(op_);
  auto* bv = concreteVec(b);
  auto* xv = concreteVec(x);
  auto precPort = std::dynamic_pointer_cast<PrecondPort>(M);
  // A connected preconditioner is the solver's to prepare: set it up
  // against the operator being solved.  The pointer test pays the setup
  // once per operator; a matrix rebuilt after a dt change is a new one.
  if (checkedOut && precPort && csrOp &&
      precPort->matrixPtr() != csrOp->matrixPtr())
    precPort->setUp(op_);
  const bool fastPrecond = !M || (precPort && precPort->isSetUp());
  // Run the configured algorithm; without a preconditioner it gets
  // NoPreconditioner, which CG turns into z ≡ r.
  auto run = [this](auto&& apply, auto&& precond, const auto& bb, auto& xx) {
    switch (algo_) {
      case Algo::Cg: report_ = cg(apply, precond, bb, xx, options_); break;
      case Algo::BiCgStab:
        report_ = bicgstab(apply, precond, bb, xx, options_);
        break;
      case Algo::Gmres: report_ = gmres(apply, precond, bb, xx, options_); break;
    }
    return toSidl(report_.status);
  };

  if (!forcePortable_ && csrOp && bv && xv && fastPrecond) {
    CsrMatrix& A = csrOp->matrix();
    auto apply = [&](const dist::DistVector<double>& in,
                     dist::DistVector<double>& out) { A.apply(in, out); };
    if (!precPort) return run(apply, NoPreconditioner{}, *bv, *xv);
    auto precond = [&](const dist::DistVector<double>& in,
                       dist::DistVector<double>& out) {
      precPort->impl().apply(in, out);
    };
    return run(apply, precond, *bv, *xv);
  }

  // Portable path: the identical algorithm over interface calls.
  IfaceVec ib(b), ix(x);
  auto op = op_;
  auto apply = [op](const IfaceVec& in, IfaceVec& out) {
    auto target = out.get();
    op->apply(in.get(), target);
  };
  if (!M) return run(apply, NoPreconditioner{}, ib, ix);
  auto precond = [&M](const IfaceVec& in, IfaceVec& out) {
    auto target = out.get();
    M->apply(in.get(), target);
  };
  return run(apply, precond, ib, ix);
}

// ---------------------------------------------------------------------------
// CCA components
// ---------------------------------------------------------------------------

void OperatorComponent::setServices(core::Services* svc) {
  if (!svc) return;
  svc->addProvidesPort(std::make_shared<CsrOperatorPort>(A_),
                       core::PortInfo{"operator", "esi.MatrixAccess"});
}

void PreconditionerComponent::setServices(core::Services* svc) {
  if (!svc) return;
  svc->addProvidesPort(std::make_shared<PrecondPort>(kind_),
                       core::PortInfo{"preconditioner", "esi.Preconditioner"});
}

void PreconditionerComponent::saveState(ckpt::Archive& a) {
  a.putString("kind", kind_);
}

void PreconditionerComponent::restoreState(const ckpt::Archive& a) {
  if (a.getString("kind") != kind_)
    throw ckpt::CkptError(ckpt::CkptErrorKind::State,
                          "esi preconditioner: archived kind '" +
                              a.getString("kind") +
                              "' does not match this component's '" + kind_ +
                              "'");
}

void KrylovSolverComponent::setServices(core::Services* svc) {
  if (!svc) {
    if (port_) port_->attachServices(nullptr, "");
    return;
  }
  port_ = std::make_shared<KrylovSolverPort>(algo_);
  svc->registerUsesPort(core::PortInfo{"preconditioner", "esi.Preconditioner"});
  port_->attachServices(svc, "preconditioner");
  svc->addProvidesPort(port_, core::PortInfo{"solver", "esi.LinearSolver"});
}

void KrylovSolverComponent::saveState(ckpt::Archive& a) {
  if (!port_)
    throw ckpt::CkptError(ckpt::CkptErrorKind::State,
                          "esi solver: component has been destroyed");
  a.putString("algo", port_->name());
  a.putDouble("rtol", port_->options().rtol);
  a.putLong("maxIterations", port_->options().maxIterations);
}

void KrylovSolverComponent::restoreState(const ckpt::Archive& a) {
  if (!port_)
    throw ckpt::CkptError(ckpt::CkptErrorKind::State,
                          "esi solver: component has been destroyed");
  // The archived "algo" name is informational only: the tunables below are
  // algorithm-independent, which is what lets a live upgrade pour a CG
  // solver's archive into its BiCgStab replacement (Framework::
  // restoreInstances / upgrade::UpgradeCoordinator).
  (void)a.getString("algo");
  port_->options().rtol = a.getDouble("rtol");
  port_->options().maxIterations =
      static_cast<int>(a.getLong("maxIterations"));
}

void registerEsiComponents(core::Framework& fw) {
  using Algo = KrylovSolverPort::Algo;
  const auto solverRecord = [](const std::string& name, const std::string& desc) {
    core::ComponentRecord r;
    r.typeName = name;
    r.description = desc;
    r.provides = {{"solver", "esi.LinearSolver"}};
    r.uses = {{"preconditioner", "esi.Preconditioner"}};
    return r;
  };
  fw.registerComponentType(
      solverRecord("esi.CgSolver", "preconditioned conjugate gradients"),
      [] { return std::make_shared<KrylovSolverComponent>(Algo::Cg); });
  fw.registerComponentType(
      solverRecord("esi.BiCgStabSolver", "preconditioned BiCGStab"),
      [] { return std::make_shared<KrylovSolverComponent>(Algo::BiCgStab); });
  fw.registerComponentType(
      solverRecord("esi.GmresSolver", "restarted GMRES(m)"),
      [] { return std::make_shared<KrylovSolverComponent>(Algo::Gmres); });

  const auto precRecord = [](const std::string& name, const std::string& desc) {
    core::ComponentRecord r;
    r.typeName = name;
    r.description = desc;
    r.provides = {{"preconditioner", "esi.Preconditioner"}};
    return r;
  };
  for (const char* kind : {"identity", "jacobi", "sor", "ilu0"}) {
    std::string typeName = std::string("esi.") +
                           (kind == std::string("identity") ? "IdentityPrecond"
                            : kind == std::string("jacobi") ? "JacobiPrecond"
                            : kind == std::string("sor")    ? "SorPrecond"
                                                            : "Ilu0Precond");
    std::string k = kind;
    fw.registerComponentType(
        precRecord(typeName, std::string(kind) + " preconditioner"),
        [k] { return std::make_shared<PreconditionerComponent>(k); });
  }
}

}  // namespace cca::esi::comp
