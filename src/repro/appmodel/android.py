"""Android app packages (the decompiled-APK view).

:class:`AndroidApp` pairs a :class:`~repro.appmodel.app.MobileApp` with its
package materialisation: an AndroidManifest, an optional NSC file, smali
code trees per SDK, embedded certificates, and native libraries whose
strings only a radare2-style pass surfaces.

Apktool in the real pipeline produces exactly this file tree from an APK;
the simulation skips the binary round-trip and exposes the decompiled form
directly (see :mod:`repro.core.static.decompile`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.appmodel.app import MobileApp
from repro.appmodel.filetree import FileTree
from repro.appmodel.pinning import PinForm, PinMechanism
from repro.appmodel.sdk import sdk_by_name
from repro.errors import AppModelError
from repro.util.encoding import b64encode

# The manifest, NSC and packaging modules serve package building only, so
# the functions that build import them: a run that reads its corpus back
# from the result store never loads them.
if TYPE_CHECKING:
    from repro.appmodel.nsc import NSCConfig
    from repro.appmodel.package import PackagingContext

_SMALI_HEADER = """.class public L{path};
.super Ljava/lang/Object;

.method public constructor <init>()V
    .locals 2
"""
_SMALI_FOOTER = """    return-void
.end method
"""


@dataclass
class AndroidApp:
    """A packaged Android app."""

    app: MobileApp
    package: FileTree = field(default_factory=FileTree)

    @property
    def app_id(self) -> str:
        return self.app.app_id


def _nsc_config_for(app: MobileApp) -> Optional[NSCConfig]:
    """Build the app's NSC file, if it ships one.

    NSC specs contribute pin-sets; an app flagged ``uses_nsc`` without NSC
    pin specs gets a pin-less config (the common real-world case prior
    work measured: most NSC users configure cleartext, not pins).
    """
    nsc_specs = [
        s for s in app.pinning_specs if s.mechanism is PinMechanism.NSC
    ]
    if not nsc_specs and not app.uses_nsc:
        return None
    from repro.appmodel.nsc import NSCConfig, NSCDomainConfig, NSCPin

    config = NSCConfig(base_cleartext_permitted=False)
    for spec in nsc_specs:
        for domain in spec.domains:
            resolved = spec.resolved.get(domain)
            if resolved is None:
                raise AppModelError(f"NSC spec for {domain!r} unresolved")
            config.domain_configs.append(
                NSCDomainConfig(
                    domain=domain,
                    pins=[
                        NSCPin(digest="SHA-256", value=p.split("/", 1)[1])
                        for p in resolved.pin_strings
                    ],
                    pin_set_expiration="2023-01-01",
                    override_pins=spec.nsc_override_pins,
                )
            )
    if not config.domain_configs:
        config.domain_configs.append(
            NSCDomainConfig(domain="legacy.example.com", cleartext_permitted=True)
        )
    return config


def _smali_path(code_path: str, class_name: str) -> str:
    return f"smali/{code_path}/{class_name}.smali"


def _emit_code_files(app: MobileApp, tree: FileTree, ctx: PackagingContext) -> None:
    """Smali trees for the app's own code and each SDK."""
    rng = ctx.rng.child("code", app.app_id)
    own_path = app.app_id.replace(".", "/")
    tree.add(
        _smali_path(own_path, "MainActivity"),
        _SMALI_HEADER.format(path=f"{own_path}/MainActivity")
        + '    const-string v0, "app_start"\n'
        + _SMALI_FOOTER,
    )

    for sdk_name in app.sdk_names:
        sdk = sdk_by_name(sdk_name)
        if sdk is None or not sdk.available_on("android"):
            continue
        path = sdk.code_path_android or f"sdk/{sdk_name.lower().replace(' ', '')}"
        body = [
            _SMALI_HEADER.format(path=f"{path}/NetworkClient"),
            f'    const-string v0, "{sdk.domains[0] if sdk.domains else "config"}"',
        ]
        tree.add(_smali_path(path, "NetworkClient"), "\n".join(body) + "\n" + _SMALI_FOOTER)
        if sdk.embeds_certificates and not sdk.pins:
            from repro.appmodel.package import ca_bundle_pem

            bundle = ca_bundle_pem(ctx, count=rng.randint(2, 4))
            if bundle:
                tree.add(f"{path}/res/cacert.pem".replace("smali/", ""), bundle)


def _emit_pin_material(app: MobileApp, tree: FileTree) -> None:
    """Embed each static-visible spec's pin material at its code path."""
    for index, spec in enumerate(app.pinning_specs):
        if spec.mechanism is PinMechanism.NSC:
            continue  # lives in the NSC file
        if not spec.visible_to_static() and spec.mechanism is not PinMechanism.CUSTOM_TLS:
            # Obfuscated material still ships, but encoded.
            pass
        code_path = spec.code_path or app.app_id.replace(".", "/")
        # SDK material ships inside the SDK's own directory (the paper's
        # attribution signal); first-party material under assets/.
        cert_dir = f"{code_path}/certs" if spec.code_path else "assets/certs"
        if spec.form is PinForm.RAW_CERTIFICATE:
            for domain in spec.domains:
                resolved = spec.resolved.get(domain)
                if resolved is None:
                    raise AppModelError(f"spec for {domain!r} unresolved")
                safe = domain.replace(".", "_")
                if spec.obfuscated:
                    # Certificate reconstructed at run time; only an
                    # unrecognisable blob ships.
                    tree.add(
                        f"{cert_dir}/{safe}.bin",
                        b64encode(resolved.pem.encode())[::-1],
                    )
                else:
                    tree.add(f"{cert_dir}/{safe}.pem", resolved.pem)
                    tree.add(
                        _smali_path(code_path, f"PinManager{index}"),
                        _SMALI_HEADER.format(path=f"{code_path}/PinManager{index}")
                        + f'    const-string v0, "{cert_dir}/{safe}.pem"\n'
                        + _SMALI_FOOTER,
                    )
        else:
            from repro.appmodel.package import pin_declaration_lines

            lines = pin_declaration_lines(spec, style="smali")
            if spec.mechanism is PinMechanism.CUSTOM_TLS:
                # Custom stacks keep pins in native code: only the
                # radare2-strings pass can see them.
                tree.add(
                    f"lib/arm64-v8a/libpinning{index}.so",
                    "\n".join(
                        line.split(", ", 1)[-1].strip('"') for line in lines
                    ),
                    binary=True,
                )
            else:
                tree.add(
                    _smali_path(code_path, f"CertificatePinner{index}"),
                    _SMALI_HEADER.format(path=f"{code_path}/CertificatePinner{index}")
                    + "\n".join(lines)
                    + "\n"
                    + _SMALI_FOOTER,
                )


def build_android_package(app: MobileApp, ctx: PackagingContext) -> AndroidApp:
    """Materialise the decompiled-APK file tree for an app.

    Raises:
        AppModelError: if the app is not an Android app or a spec is
            unresolved.
    """
    if app.platform != "android":
        raise AppModelError(f"{app.app_id!r} is not an Android app")
    from repro.appmodel.manifest import AndroidManifest

    tree = FileTree()
    nsc = _nsc_config_for(app)
    manifest = AndroidManifest(
        package=app.app_id,
        network_security_config="@xml/network_security_config" if nsc else None,
    )
    tree.add("AndroidManifest.xml", manifest.to_xml())
    if nsc is not None:
        tree.add("res/xml/network_security_config.xml", nsc.to_xml())

    _emit_code_files(app, tree, ctx)
    _emit_pin_material(app, tree)

    # Generic filler every app ships (the attribution step must ignore it).
    tree.add("assets/config.json", '{"build": "release", "flavor": "store"}')
    tree.add("resources.arsc", "binary-resource-table", binary=True)
    return AndroidApp(app=app, package=tree)
