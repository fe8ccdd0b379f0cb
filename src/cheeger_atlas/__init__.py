"""Cheeger constants, extremal shapes and sharp bounds for planar convex bodies."""

from .bounds import BoundResult, BoundTable, arcsinc, d0, dstar, evaluate_all, psi, registry_csv
from .cheeger import CheegerResult, ImplicitRootProblem, cheeger_constant, smallest_crossing
from .diagrams import DiagramPoint, DiagramSpec, boundary, membership, render
from .errors import (CheegerAtlasError, DegenerateInput, DomainError, InvalidParam,
                     NoConvergence, PolygonJsonError, Unreachable, Unsupported)
from .functionals import (Functionals, area, circumradius, diameter, inradius, measure,
                          min_width, perimeter)
from .geom import (ConvexPolygon, dilate, form_body, inner_parallel, interpolate, minkowski_sum,
                   polygon_from_json, polygon_to_json, support)
from .sampler import cloud_csv, mix, sample_cloud, valtr
from .shapes import (Ball, ConstantWidthNonagon, Resolution, ShapeSpec, Slice, SmoothedNonagon,
                     Stadium, SubequilateralTriangle, TwoCup, Yamanouti, build, closed_form,
                     solve_param, triangle_functionals)
from .verify import verify_suite

__version__ = "0.1.0"
