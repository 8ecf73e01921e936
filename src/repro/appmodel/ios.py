"""iOS app packages (IPA with FairPlay-style encryption).

iOS apps from the App Store are encrypted; static analysis must first
obtain a decrypted payload (the paper uses Flexdecrypt or Frida-iOS-Dump
on a jailbroken iPhone, Section 4.1.2).  :class:`IPA` models that gate:
the payload file tree is only reachable after :meth:`IPA.decrypt`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from repro.appmodel.app import MobileApp
from repro.appmodel.filetree import FileTree
from repro.appmodel.pinning import PinForm, PinMechanism
from repro.appmodel.sdk import sdk_by_name
from repro.errors import AppModelError, PackageEncryptedError
from repro.util.encoding import b64encode

# The plist and packaging modules serve package building only, so the
# functions that build import them: a run that reads its corpus back from
# the result store never loads them.
if TYPE_CHECKING:
    from repro.appmodel.package import PackagingContext


@dataclass
class IPA:
    """An App Store package.

    Attributes:
        bundle_id: app identity.
        encrypted: FairPlay encryption state.  While True, the payload is
            unreadable.
    """

    bundle_id: str
    encrypted: bool = True
    _payload: FileTree = field(default_factory=FileTree)

    def payload(self) -> FileTree:
        """The app directory tree.

        Raises:
            PackageEncryptedError: if the package has not been decrypted.
        """
        if self.encrypted:
            raise PackageEncryptedError(
                f"{self.bundle_id}: payload is FairPlay-encrypted; decrypt first"
            )
        return self._payload

    def decrypt(self) -> FileTree:
        """Mark the payload decrypted and return it.

        Callers model the decryption *capability* (jailbroken device,
        Flexdecrypt vs Frida-iOS-Dump) in
        :mod:`repro.core.static.decompile`; the IPA itself only tracks
        state.
        """
        self.encrypted = False
        return self._payload


@dataclass
class IOSApp:
    """A packaged iOS app."""

    app: MobileApp
    ipa: IPA

    @property
    def app_id(self) -> str:
        return self.app.app_id


def _app_dir(app: MobileApp) -> str:
    name = app.name.replace(" ", "")
    return f"Payload/{name}.app"


def _emit_frameworks(app: MobileApp, tree: FileTree, ctx: PackagingContext) -> None:
    from repro.appmodel.package import ca_bundle_pem
    from repro.appmodel.plist import InfoPlist

    base = _app_dir(app)
    rng = ctx.rng.child("ios-code", app.app_id)
    for sdk_name in app.sdk_names:
        sdk = sdk_by_name(sdk_name)
        if sdk is None or not sdk.available_on("ios"):
            continue
        framework_path = sdk.code_path_ios or (
            f"Frameworks/{sdk_name.replace(' ', '')}.framework"
        )
        binary_name = framework_path.rsplit("/", 1)[-1].replace(".framework", "")
        tree.add(
            f"{base}/{framework_path}/{binary_name}",
            f"{sdk.domains[0] if sdk.domains else 'init'}\n__TEXT,__cstring",
            binary=True,
        )
        tree.add(
            f"{base}/{framework_path}/Info.plist",
            InfoPlist(
                bundle_id=f"com.sdk.{binary_name.lower()}", bundle_name=binary_name
            ).to_plist_xml(),
        )
        if sdk.embeds_certificates and not sdk.pins:
            bundle = ca_bundle_pem(ctx, count=rng.randint(2, 4))
            if bundle:
                tree.add(f"{base}/{framework_path}/roots.pem", bundle)


def _emit_pin_material(app: MobileApp, tree: FileTree) -> None:
    base = _app_dir(app)
    main_binary = f"{base}/{app.name.replace(' ', '')}"
    main_strings: List[str] = []

    for index, spec in enumerate(app.pinning_specs):
        code_path = spec.code_path
        # SDK material ships inside its framework directory (attribution
        # signal); first-party material at the bundle root.
        cert_dir = f"{base}/{code_path}" if code_path else base
        if spec.form is PinForm.RAW_CERTIFICATE:
            for domain in spec.domains:
                resolved = spec.resolved.get(domain)
                if resolved is None:
                    raise AppModelError(f"spec for {domain!r} unresolved")
                safe = domain.replace(".", "_")
                if spec.obfuscated:
                    tree.add(
                        f"{cert_dir}/{safe}.blob",
                        b64encode(resolved.pem.encode())[::-1],
                    )
                else:
                    # iOS convention: DER-ish .cer files in the bundle.
                    tree.add(
                        f"{cert_dir}/{safe}.cer",
                        b64encode(resolved.pem.encode("utf-8")),
                    )
        else:
            from repro.appmodel.package import pin_declaration_lines

            lines = pin_declaration_lines(spec, style="objc")
            if code_path:
                binary_name = code_path.rsplit("/", 1)[-1].replace(".framework", "")
                tree.add(
                    f"{base}/{code_path}/{binary_name}",
                    "\n".join(lines) + "\n__TEXT,__cstring",
                    binary=True,
                )
            else:
                main_strings.extend(lines)

    content = "\n".join(main_strings) if main_strings else "main"
    tree.add(main_binary, content + "\n__mh_execute_header", binary=True)


def build_ios_package(app: MobileApp, ctx: PackagingContext) -> IOSApp:
    """Materialise the IPA for an app (payload starts encrypted).

    Raises:
        AppModelError: if the app is not an iOS app or a spec is
            unresolved.
    """
    if app.platform != "ios":
        raise AppModelError(f"{app.app_id!r} is not an iOS app")
    from repro.appmodel.plist import ATSPinnedDomain, Entitlements, InfoPlist

    tree = FileTree()
    base = _app_dir(app)
    info = InfoPlist(bundle_id=app.app_id, bundle_name=app.name)
    # Some apps ship iOS 14 NSPinnedDomains alongside code pinning; the
    # study's device (iOS 13.6) ignores it and so does the static pipeline.
    for spec in app.pinning_specs:
        if spec.mechanism is PinMechanism.URLSESSION and not spec.obfuscated:
            for domain in spec.domains:
                resolved = spec.resolved.get(domain)
                if resolved is None:
                    continue
                info.ats_pinned_domains.append(
                    ATSPinnedDomain(
                        domain=domain,
                        spki_sha256_base64=tuple(
                            p.split("/", 1)[1] for p in resolved.pin_strings
                        ),
                    )
                )
            break
    tree.add(f"{base}/Info.plist", info.to_plist_xml())
    tree.add(
        f"{base}/archived-expanded-entitlements.xcent",
        Entitlements(
            bundle_id=app.app_id, associated_domains=app.associated_domains
        ).to_plist_xml(),
    )

    _emit_frameworks(app, tree, ctx)
    _emit_pin_material(app, tree)
    tree.add(f"{base}/embedded.mobileprovision", "provisioning-profile", binary=True)

    return IOSApp(app=app, ipa=IPA(bundle_id=app.app_id, _payload=tree))
