"""Reconciling the two spellings of the build knobs.

:class:`~repro.api.BuildConfig` is the preferred spelling of the build
knobs; :func:`resolve_config_kwargs` merges a config with the
still-supported loose kwargs, rejecting conflicting spellings with
:class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError


def resolve_config_kwargs(config, explicit: dict, *, config_cls=None):
    """Merge a ``BuildConfig`` with explicitly passed loose kwargs.

    ``explicit`` holds only the kwargs the caller actually spelled out
    (callers filter out their not-passed sentinel before calling).  With
    no ``config`` the kwargs are applied over the defaults; with one,
    every explicit kwarg must agree with the config's value — agreement
    is fine (the caller is being redundant, not wrong), disagreement is
    a :class:`~repro.exceptions.ConfigurationError` naming every
    conflicting knob.
    """
    if config_cls is None:
        from repro.api import BuildConfig as config_cls
    if config is None:
        return config_cls().replace(**explicit) if explicit else config_cls()
    if not isinstance(config, config_cls):
        raise ConfigurationError(
            f"config= must be a {config_cls.__name__}, got {type(config).__name__}"
        )
    conflicts = {
        name: value
        for name, value in explicit.items()
        if value != getattr(config, name)
    }
    if conflicts:
        detail = ", ".join(
            f"{name}={value!r} (config has {getattr(config, name)!r})"
            for name, value in sorted(conflicts.items())
        )
        raise ConfigurationError(
            f"kwargs conflict with config=: {detail}; drop one spelling "
            "or make them agree"
        )
    return config


__all__ = ["resolve_config_kwargs"]
