"""Explicit matrix representations of word-hyperbolic groups, with
mechanical verification of their eigenvalue orderings, proximality
classifications, obstruction certificates, and finite-scale
singular-value-gap diagnostics."""

__version__ = "0.1.0"

from .errors import (ConstructionError, DegenerateConfigurationError,
                     InputError, NumericalError, SamplingError, SearchError,
                     SizeError, SpecgapError)
from .words import (Alphabet, GeneratorMap, Presentation, Word, commutator,
                    enumerate_ball, free_part_alphabet, full_alphabet,
                    in_index_two_core, reduce, retraction_to_free_part,
                    standard_presentation, transport, word)
from .linalg import (ProximalityClass, Spectrum, classify, classify_exterior,
                     exterior_power, spectrum)
from .reps import (Character, ComplexRep2, RepSpec, block_sum, pull_back,
                   realify_lift, realify_sl2c, rotation_block_rep,
                   scale_by_character, scaled_rotation_rep, schottky_sl2c,
                   schottky_sl2r, spectra, spin_lift, spin_so31, tensor_rep,
                   validate_homomorphism)
from .obstruct import (ObstructionCertificate, SignWitness, certify_not_limit,
                       check_domination, find_negative_lambda,
                       limit_formula_check, sample_limit_set,
                       verify_certificate)
from .certify import Profile, gap_profile, qi_profile
from .builders import BuildResult, build_named, known_constructions
from .reproduce import run_reproduction, verify_golden
