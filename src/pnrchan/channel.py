"""Physical channel parameters and the mapping to per-arm detection rates.

A binary phase-shift-keyed source emits coherent pulses of amplitude
``(-1)**(k+1) * alpha`` for symbol k in {0, 1}.  After a pure-loss channel of
transmissivity T the pulse interferes with a local oscillator of amplitude z
on a balanced beam splitter; the two output arms are read by photon-number
resolving detectors.  Conditioned on the symbol, the counts on each arm are
Poissonian with means

    mu_t = (T*alpha^2 + z^2 + 2*xi*sqrt(T)*alpha_k*z) / 2
    mu_r = (T*alpha^2 + z^2 - 2*xi*sqrt(T)*alpha_k*z) / 2

where xi in [0, 1] is the interference visibility between signal and LO.
Everything here is a pure function over immutable value objects.
"""

import math
import sys
from dataclasses import dataclass, replace

from .errors import ValidationError

__all__ = [
    "ChannelParams",
    "detection_rates",
    "eve_params",
    "coherent_overlap",
    "loss_db_to_transmissivity",
    "transmissivity_to_loss_db",
]


@dataclass(frozen=True)
class ChannelParams:
    """Source, channel, and receiver parameters for one party.

    alpha          source coherent amplitude (>= 0; 0 is the degenerate
                   no-signal channel)
    transmissivity channel transmissivity T in (0, 1]
    lo_amplitude   local-oscillator amplitude z >= 0
    visibility     interference visibility xi in [0, 1]
    priors         a-priori symbol probabilities (q0, q1), q0 + q1 = 1
    """

    alpha: float
    transmissivity: float = 1.0
    lo_amplitude: float = 0.0
    visibility: float = 1.0
    priors: tuple = (0.5, 0.5)

    def __post_init__(self):
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValidationError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (0.0 < self.transmissivity <= 1.0):
            raise ValidationError(
                f"transmissivity must lie in (0, 1], got {self.transmissivity}"
            )
        if not (self.lo_amplitude >= 0.0 and math.isfinite(self.lo_amplitude)):
            raise ValidationError(
                f"lo_amplitude must be finite and >= 0, got {self.lo_amplitude}"
            )
        if not (0.0 <= self.visibility <= 1.0):
            raise ValidationError(
                f"visibility must lie in [0, 1], got {self.visibility}"
            )
        try:
            q0, q1 = self.priors
            finite = math.isfinite(q0) and math.isfinite(q1)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"priors must be a pair of numbers, got {self.priors!r}"
            ) from exc
        if not finite or q0 < 0.0 or q1 < 0.0 or abs(q0 + q1 - 1.0) > 1e-12:
            raise ValidationError(
                f"priors must be finite, nonnegative and sum to 1, got {self.priors}"
            )

    @classmethod
    def from_means(cls, signal_mean, lo_mean, *, visibility=1.0, loss_db=0.0,
                   priors=(0.5, 0.5)):
        """Build parameters from mean photon numbers measured at the receiver.

        ``signal_mean`` is the signal mean photon number at the receiver
        (T * alpha^2) and ``lo_mean`` the LO mean photon number (z^2).  When a
        nonzero ``loss_db`` is given, the source amplitude is scaled up so the
        receiver-side mean stays at ``signal_mean``.  A mean that is not
        finite and >= 0 is refused by the name the caller gave it, and a loss
        that would need an infinite source mean by its value.
        """
        for name, mean in (("signal", signal_mean), ("LO", lo_mean)):
            if not (mean >= 0.0 and math.isfinite(mean)):
                raise ValidationError(f"{name} mean must be finite and >= 0, got {mean}")
        t = loss_db_to_transmissivity(loss_db)
        source_mean = signal_mean / t
        if source_mean == math.inf:
            raise ValidationError(
                f"signal mean {signal_mean} behind a loss of {loss_db:.12g} dB needs "
                "a source mean above the largest double"
            )
        return cls(
            alpha=math.sqrt(source_mean),
            transmissivity=t,
            lo_amplitude=math.sqrt(lo_mean),
            visibility=visibility,
            priors=priors,
        )

    @property
    def signal_mean(self):
        """Mean photon number of the signal at the receiver, T * alpha^2."""
        return self.transmissivity * self.alpha * self.alpha

    @property
    def lo_mean(self):
        """Mean photon number of the local oscillator, z^2."""
        return self.lo_amplitude * self.lo_amplitude


def detection_rates(params: ChannelParams, symbol: int) -> tuple:
    """Per-arm Poisson rates ``(mu_t, mu_r)`` conditioned on the encoded symbol.

    Symbol 1 carries amplitude +alpha and piles counts onto the transmitted
    arm; symbol 0 carries -alpha and mirrors the two arms.  The rates always
    satisfy mu_t + mu_r = T*alpha^2 + z^2 and both are >= 0 for xi <= 1.
    """
    if symbol not in (0, 1):
        raise ValidationError(f"symbol must be 0 or 1, got {symbol}")
    s = params.signal_mean
    z2 = params.lo_mean
    sign = 1.0 if symbol == 1 else -1.0
    # sqrt(s) * sqrt(z2): the product s * z2 underflows below about 1e-308
    cross = sign * 2.0 * params.visibility * (math.sqrt(s) * math.sqrt(z2))
    mu_t = 0.5 * (s + z2 + cross)
    mu_r = 0.5 * (s + z2 - cross)
    # xi <= 1 guarantees nonnegativity; clip float dust at the perfect-
    # interference point where mu is exactly 0 up to rounding.
    return max(mu_t, 0.0), max(mu_r, 0.0)


def eve_params(params: ChannelParams, lo_amplitude=None) -> ChannelParams:
    """Parameters of the wiretapper, who receives the lost beam fraction.

    The eavesdropper collects the reflected fraction (transmissivity 1 - T)
    with an ideal receiver (unit visibility).  Her LO amplitude defaults to
    the honest receiver's; pass ``lo_amplitude`` to override.
    """
    t = params.transmissivity
    if t >= 1.0:
        raise ValidationError(
            "transmissivity is 1: the wiretapper receives vacuum (degenerate)"
        )
    return replace(
        params,
        transmissivity=1.0 - t,
        visibility=1.0,
        lo_amplitude=params.lo_amplitude if lo_amplitude is None else lo_amplitude,
    )


def coherent_overlap(amplitude_sq: float) -> float:
    """Inner product <-beta|+beta> = exp(-2*beta^2) of opposite coherent states.

    ``amplitude_sq`` is beta^2 (mean photon number of either state).
    """
    if amplitude_sq < 0.0:
        raise ValidationError(f"amplitude_sq must be >= 0, got {amplitude_sq}")
    return math.exp(-2.0 * amplitude_sq)


def loss_db_to_transmissivity(loss_db: float) -> float:
    """Convert an attenuation in dB to a power transmissivity in (0, 1].

    A loss whose transmissivity is below the smallest normal double (a loss
    above about 3076.5 dB) is refused by its value: a subnormal carries
    fewer than 53 significant bits, so it would not hold the loss.
    """
    if loss_db < 0.0 or not math.isfinite(loss_db):
        raise ValidationError(f"loss_db must be finite and >= 0, got {loss_db}")
    t = 10.0 ** (-loss_db / 10.0)
    if t < sys.float_info.min:
        raise ValidationError(f"a loss of {loss_db:.12g} dB leaves a transmissivity below "
                              f"the smallest normal double, {sys.float_info.min:.6g}")
    return t


def transmissivity_to_loss_db(transmissivity: float) -> float:
    """Inverse of :func:`loss_db_to_transmissivity`."""
    if not (0.0 < transmissivity <= 1.0):
        raise ValidationError(
            f"transmissivity must lie in (0, 1], got {transmissivity}"
        )
    return -10.0 * math.log10(transmissivity)
