#pragma once
/// \file generator.hpp
/// Mesh generators. The generators emit *unstructured* storage (no
/// structured indexing survives), matching how the reference BookLeaf
/// builds its test meshes; `permute` can additionally scramble entity
/// order to prove kernels never rely on structured numbering.

#include <functional>

#include "mesh/mesh.hpp"
#include "util/random.hpp"

namespace bookleaf::mesh {

/// Specification for a tensor-product rectangle that is emitted as an
/// unstructured quad mesh.
struct RectSpec {
    Real x0 = 0.0, x1 = 1.0;
    Real y0 = 0.0, y1 = 1.0;
    Index nx = 10, ny = 10;

    /// Material region for a cell given its (undistorted) centroid.
    /// Defaults to region 0 everywhere.
    std::function<Index(Real, Real)> region_of;

    /// Node-coordinate mapping applied after lattice generation (mesh
    /// distortion, e.g. the Saltzmann skew). Defaults to identity.
    std::function<std::pair<Real, Real>(Real, Real)> map;

    /// If true (default), nodes on the rectangle boundary receive
    /// reflective-wall masks: fix_u on x-extremes, fix_v on y-extremes.
    bool reflective_walls = true;
};

/// Generate an unstructured quad mesh for the rectangle. Connectivity is
/// built before returning.
Mesh generate_rect(const RectSpec& spec);

/// The classic Saltzmann mesh distortion on [0,1]x[0,0.1]:
///   x(i,j) = xi + (0.1 - eta) * sin(pi * xi),  y = eta
/// which skews cell columns to exacerbate hourglass modes (paper §III-B).
std::pair<Real, Real> saltzmann_map(Real xi, Real eta);

/// Randomly permute cell and node numbering (preserving geometry and
/// region/bc data) through `renumber`. The result is a new caller
/// numbering: its canonical ids are empty. Kernels must be invariant to
/// this relabelling — used by property tests and the benchmark.
Mesh permute(const Mesh& mesh, util::SplitMix64& rng);

} // namespace bookleaf::mesh
