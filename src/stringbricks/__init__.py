"""Bricks over string algebras via multi-entry inverse automata."""

from .algebra import (Presentation, PresentationError, SignError, SignMaps,
                      ValidationReport, format_presentation, parse_presentation,
                      solve_sign_maps, validate_string_algebra,
                      verify_sign_conditions)
from .strings import Band, CapExceeded, Context, Str, StringError
from .words import (Letter, Window, Word, classify_periodicity,
                    complexity_profile, invert)
from .mia import (Mia, MiaError, PointedWord, UnsupportedRepresentation,
                  check_local_bijection, check_word, equivalent, format_mia,
                  is_brick_word, is_weak_brick_word, parse_mia, relabel,
                  transport, transport_back, validate_mia)
from .construct import (binary_word, build_mia, parity_mia, string_to_word,
                        to_dot, word_to_string)
from .bricks import (BrickReport, band_brick_automaton, band_brick_direct,
                     string_brick_automaton, string_brick_direct)
from .endo import (band_module, end_dim, end_dim_band, end_dim_string,
                   string_module)
from .sturmian import (DirectiveSequence, bridge, characteristic_prefix,
                       sturmian_window_check)
from .recover import presentations_isomorphic, recover_presentation

__all__ = [name for name in dir() if not name.startswith("_")]
