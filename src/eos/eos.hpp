#pragma once
/// \file eos.hpp
/// Equations of state. BookLeaf provides ideal gas, Tait, and JWL, plus a
/// void material (paper §III-A). The EoS closes Euler's equations by
/// supplying pressure and sound speed from (density, specific internal
/// energy).

#include <algorithm>
#include <cmath>
#include <variant>
#include <vector>

#include "util/error.hpp"
#include "util/types.hpp"

namespace bookleaf::eos {

/// P = (gamma - 1) rho e;  c^2 = gamma P / rho.
struct IdealGas {
    Real gamma = 1.4;
};

/// Tait (stiff liquid): P = B[(rho/rho0)^n - 1] + p_ref;
/// c^2 = dP/drho = (B n / rho0) (rho/rho0)^{n-1}.
struct Tait {
    Real rho0 = 1.0;
    Real b = 1.0;  ///< bulk modulus-like coefficient B
    Real n = 7.0;
    Real p_ref = 0.0;
};

/// Jones-Wilkins-Lee (detonation products), eta = rho / rho0:
/// P = A(1 - w eta/R1) exp(-R1/eta) + B(1 - w eta/R2) exp(-R2/eta)
///     + w rho e.
struct Jwl {
    Real rho0 = 1.0;
    Real a = 0.0, b = 0.0;
    Real r1 = 1.0, r2 = 1.0;
    Real omega = 0.3;
};

/// Void: zero pressure, floor sound speed.
struct Void {};

using Material = std::variant<IdealGas, Tait, Jwl, Void>;

/// Numerical cutoffs applied uniformly (BookLeaf's pcut/ccut).
struct Cutoffs {
    Real pcut = 1.0e-8; ///< |P| below this is snapped to zero
    Real ccut = 1.0e-6; ///< floor on the squared sound speed
};

namespace detail {

struct PressureOp {
    Real rho, ein;

    Real operator()(const IdealGas& m) const {
        return (m.gamma - Real(1.0)) * rho * ein;
    }
    Real operator()(const Tait& m) const {
        return m.b * (std::pow(rho / m.rho0, m.n) - Real(1.0)) + m.p_ref;
    }
    Real operator()(const Jwl& m) const {
        const Real eta = rho / m.rho0;
        if (eta <= tiny) return 0.0;
        const Real t1 = m.a * (Real(1.0) - m.omega * eta / m.r1) * std::exp(-m.r1 / eta);
        const Real t2 = m.b * (Real(1.0) - m.omega * eta / m.r2) * std::exp(-m.r2 / eta);
        return t1 + t2 + m.omega * rho * ein;
    }
    Real operator()(const Void&) const { return 0.0; }
};

struct SoundSpeed2Op {
    Real rho, ein;

    Real operator()(const IdealGas& m) const {
        // c^2 = gamma P / rho = gamma (gamma-1) e.
        return m.gamma * (m.gamma - Real(1.0)) * std::max(ein, Real(0.0));
    }
    Real operator()(const Tait& m) const {
        const Real eta = rho / m.rho0;
        return (m.b * m.n / m.rho0) * std::pow(eta, m.n - Real(1.0));
    }
    Real operator()(const Jwl& m) const {
        // c^2 = (dP/drho)|_e + (P/rho^2)(dP/de)|_rho, with (dP/de) = w rho.
        const Real eta = rho / m.rho0;
        if (eta <= tiny) return 0.0;
        const Real e1 = std::exp(-m.r1 / eta);
        const Real e2 = std::exp(-m.r2 / eta);
        // d/drho of A(1 - w eta/R1) exp(-R1/eta):
        //   A/rho0 * exp(-R1/eta) * [ -w/R1 + (1 - w eta/R1) * R1/eta^2 ].
        const Real d1 = m.a / m.rho0 * e1 *
                        (-m.omega / m.r1 +
                         (Real(1.0) - m.omega * eta / m.r1) * m.r1 / (eta * eta));
        const Real d2 = m.b / m.rho0 * e2 *
                        (-m.omega / m.r2 +
                         (Real(1.0) - m.omega * eta / m.r2) * m.r2 / (eta * eta));
        const Real dpdrho = d1 + d2 + m.omega * ein;
        const Real p = PressureOp{rho, ein}(m);
        return dpdrho + p / (rho * rho) * (m.omega * rho);
    }
    Real operator()(const Void&) const { return 0.0; }
};

} // namespace detail

// The evaluations are defined inline: getforce calls pressure() four times
// per cell, where an out-of-line call plus the variant dispatch would cost
// as much as the arithmetic.

/// Pressure from (rho, e) with the pcut snap applied.
[[nodiscard]] inline Real pressure(const Material& mat, Real rho, Real ein,
                                   const Cutoffs& cut = {}) {
    const Real p = std::visit(detail::PressureOp{rho, ein}, mat);
    return std::abs(p) < cut.pcut ? Real(0.0) : p;
}

/// Squared adiabatic sound speed, floored at ccut.
[[nodiscard]] inline Real sound_speed2(const Material& mat, Real rho, Real ein,
                                       const Cutoffs& cut = {}) {
    return std::max(std::visit(detail::SoundSpeed2Op{rho, ein}, mat), cut.ccut);
}

/// Per-region material table: region r of the mesh evaluates via
/// `materials[r]`.
struct MaterialTable {
    std::vector<Material> materials;
    Cutoffs cutoffs;

    [[nodiscard]] Real pressure(Index region, Real rho, Real ein) const {
        return eos::pressure(material(region), rho, ein, cutoffs);
    }
    [[nodiscard]] Real sound_speed2(Index region, Real rho, Real ein) const {
        return eos::sound_speed2(material(region), rho, ein, cutoffs);
    }

private:
    [[nodiscard]] const Material& material(Index region) const {
        BL_ASSERT(region >= 0 &&
                  region < static_cast<Index>(materials.size()));
        return materials[static_cast<std::size_t>(region)];
    }
};

} // namespace bookleaf::eos
