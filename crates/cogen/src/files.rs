//! File-level cogen driver: `.bti` interfaces and `.gx` genext files.
//!
//! This is the build-system face of the paper's workflow: each module is
//! analysed and converted to its generating extension *once*, producing
//!
//! * `Module.bti` — the binding-time interface, read when analysing
//!   modules that import this one, and
//! * `Module.gx` — the compiled generating extension, linked (without
//!   any source) when a program using the module is specialised.
//!
//! # Artefact format
//!
//! `.bti` and `.gx` files are *validated* artefacts: a one-line header
//!
//! ```text
//! #mspec-artefact v1 <kind> fnv:<16-hex-checksum>
//! ```
//!
//! precedes the JSON payload. The checksum is FNV-1a over the payload
//! bytes, so truncation and bit flips are detected structurally (a
//! [`CogenError::Format`]) instead of surfacing as a JSON parse error —
//! or worse, a silently wrong artefact. A `.bti` file's checksum doubles
//! as its *interface fingerprint*: each `.gx` records the fingerprints
//! of the interfaces it was generated against, and the linker
//! revalidates them (see [`CogenError::StaleInterface`]). Taking a
//! fingerprint ([`bti_fingerprint`]) verifies the checksum but decodes
//! nothing, and a `.gx` is identified by the checksum in its header
//! line ([`gx_header_checksum`]); interfaces are decoded only for
//! analysis.
//!
//! `.gx` files are written at version 2 — a *seekable* layout whose
//! payload opens with a per-function offset table so a session decodes
//! only the functions it uses (see [`GX_VERSION_SEEKABLE`] and
//! [`load_gx_unit`]); v1 files remain readable. All artefacts are
//! written through [`atomic_write`], so a crash mid-write can never
//! leave a truncated file at the final path.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::compile::compile_module;
use crate::textual::textual_genext;
use mspec_bta::analyse::analyse_module_with;
use mspec_bta::{BtaError, BtInterface};
use mspec_genext::{FnUnit, GenFn, GenModule, LinkUnit, SpecError};
use mspec_lang::ast::{Def, Expr, Ident, ModName, QualName, Module};
use mspec_lang::error::LangError;
use mspec_lang::parser::parse_module;
use mspec_lang::{FromJson, Json, JsonError, ToJson};
use mspec_types::TypeError;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors from the cogen pipeline, in memory or on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CogenError {
    /// Parsing or resolution failed.
    Lang(LangError),
    /// Hindley–Milner type checking failed.
    Type(TypeError),
    /// Binding-time analysis failed.
    Bta(BtaError),
    /// Linking or engine-level failure.
    Spec(SpecError),
    /// File I/O failed.
    Io(String),
    /// An interface or genext file is corrupt.
    Format(String),
    /// An imported module's interface file is missing.
    MissingInterface(ModName),
    /// A genext was generated against an older version of an import's
    /// interface: the fingerprint recorded in the `.gx` no longer
    /// matches the `.bti` on disk.
    StaleInterface {
        /// The module whose genext is out of date.
        module: ModName,
        /// The import whose interface changed underneath it.
        import: ModName,
    },
    /// A module's build panicked; the payload message is preserved.
    Panicked(String),
}

impl fmt::Display for CogenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CogenError::Lang(e) => write!(f, "{e}"),
            CogenError::Type(e) => write!(f, "{e}"),
            CogenError::Bta(e) => write!(f, "{e}"),
            CogenError::Spec(e) => write!(f, "{e}"),
            CogenError::Io(m) => write!(f, "cogen I/O error: {m}"),
            CogenError::Format(m) => write!(f, "corrupt cogen file: {m}"),
            CogenError::MissingInterface(m) => {
                write!(f, "missing interface file for imported module {m} (analyse it first)")
            }
            CogenError::StaleInterface { module, import } => {
                write!(
                    f,
                    "stale interface: {module}.gx was generated against an older \
                     {import}.bti (re-run cogen for {module})"
                )
            }
            CogenError::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

impl Error for CogenError {}

impl From<LangError> for CogenError {
    fn from(e: LangError) -> CogenError {
        CogenError::Lang(e)
    }
}

impl From<TypeError> for CogenError {
    fn from(e: TypeError) -> CogenError {
        CogenError::Type(e)
    }
}

impl From<BtaError> for CogenError {
    fn from(e: BtaError) -> CogenError {
        CogenError::Bta(e)
    }
}

impl From<SpecError> for CogenError {
    fn from(e: SpecError) -> CogenError {
        CogenError::Spec(e)
    }
}

impl From<std::io::Error> for CogenError {
    fn from(e: std::io::Error) -> CogenError {
        CogenError::Io(e.to_string())
    }
}

/// Magic token opening every on-disk artefact header line.
pub const ARTEFACT_MAGIC: &str = "#mspec-artefact";

/// The artefact format version this build reads and writes.
pub const ARTEFACT_VERSION: u32 = 1;

/// The seekable `.gx` format version: the payload opens with a compact
/// offset-table line mapping each function name to the `[start, len]`
/// byte range of its encoding in the body that follows, so loading can
/// index a module without parsing any function. v1 `.gx` files (a
/// single eager JSON document) are still read.
pub const GX_VERSION_SEEKABLE: u32 = 2;

/// FNV-1a 64-bit hash — the artefact content checksum. Any single-bit
/// flip or truncation of the payload changes the value.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn jerr(e: JsonError) -> CogenError {
    CogenError::Format(e.to_string())
}

/// Writes `contents` to `path` atomically: the bytes go to a uniquely
/// named temporary file in the same directory, which is then renamed
/// over `path`. A crash or kill mid-write can leave at most a stray
/// temp file — never a truncated artefact at the final path. The temp
/// name mixes the process id with a process-global counter, so
/// concurrent builders (threads or separate processes) writing into
/// the same directory never collide.
///
/// # Errors
///
/// Any I/O failure from the write or the rename; the temp file is
/// removed on failure.
pub fn atomic_write(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .map_or_else(|| "artefact".to_string(), |n| n.to_string_lossy().into_owned());
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = fs::write(&tmp, contents.as_ref()).and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Frames `payload` with the versioned, checksummed artefact header.
/// Public so other persistent layers (e.g. the residual disk cache)
/// store their entries with the same integrity guarantees as
/// `.bti`/`.gx` files.
pub fn encode_artefact(kind: &str, payload: &str) -> String {
    encode_artefact_v(ARTEFACT_VERSION, kind, payload)
}

/// Frames `payload` with a checksummed header at an explicit version.
fn encode_artefact_v(version: u32, kind: &str, payload: &str) -> String {
    format!(
        "{ARTEFACT_MAGIC} v{version} {kind} fnv:{:016x}\n{payload}",
        fnv64(payload.as_bytes())
    )
}

/// Validates the header of an artefact of the given kind and checks the
/// payload checksum. Returns the payload and its (verified) checksum.
pub fn decode_artefact<'a>(kind: &str, text: &'a str) -> Result<(&'a str, u64), CogenError> {
    let (payload, sum, _) = decode_artefact_versions(kind, text, &[ARTEFACT_VERSION])?;
    Ok((payload, sum))
}

/// Validates the header of an artefact of the given kind against a set
/// of accepted versions and checks the payload checksum. Returns the
/// payload, its (verified) checksum, and the version found.
///
/// Every failure mode — missing or truncated header, wrong magic, a
/// version this build does not read, a `.bti` where a `.gx` was
/// expected, or a payload that does not hash to the recorded value —
/// is a distinct, descriptive [`CogenError::Format`]; none panics.
fn decode_artefact_versions<'a>(
    kind: &str,
    text: &'a str,
    accepted: &[u32],
) -> Result<(&'a str, u64, u32), CogenError> {
    let (header, payload) = text.split_once('\n').ok_or_else(|| missing_header(kind))?;
    let (version, stored) = parse_header(kind, header, accepted)?;
    let actual = fnv64(payload.as_bytes());
    if actual != stored {
        return Err(CogenError::Format(format!(
            "checksum mismatch (file truncated or bit-flipped): header records \
             {stored:016x}, payload hashes to {actual:016x}"
        )));
    }
    Ok((payload, stored, version))
}

fn missing_header(kind: &str) -> CogenError {
    CogenError::Format(format!(
        "not a {kind} artefact: missing `{ARTEFACT_MAGIC}` header line (truncated file?)"
    ))
}

/// Validates an artefact header line (without its newline): magic,
/// version, kind and the checksum field. Returns the version and the
/// checksum the header records; the payload is not looked at.
fn parse_header(kind: &str, header: &str, accepted: &[u32]) -> Result<(u32, u64), CogenError> {
    let mut tokens = header.split(' ');
    let magic = tokens.next().unwrap_or_default();
    if magic != ARTEFACT_MAGIC {
        return Err(CogenError::Format(format!(
            "not a {kind} artefact: header starts with `{magic}`, expected `{ARTEFACT_MAGIC}`"
        )));
    }
    let version = tokens.next().unwrap_or_default();
    let parsed = version.strip_prefix('v').and_then(|v| v.parse::<u32>().ok());
    let version = match parsed {
        Some(v) if accepted.contains(&v) => v,
        _ => {
            let reads = accepted
                .iter()
                .map(|v| format!("v{v}"))
                .collect::<Vec<_>>()
                .join("/");
            return Err(CogenError::Format(format!(
                "unsupported artefact version `{version}` (this build reads {reads} for {kind})"
            )));
        }
    };
    let got_kind = tokens.next().unwrap_or_default();
    if got_kind != kind {
        return Err(CogenError::Format(format!(
            "artefact is a `{got_kind}` file where a `{kind}` file was expected"
        )));
    }
    let stored = tokens
        .next()
        .unwrap_or_default()
        .strip_prefix("fnv:")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| {
            CogenError::Format("malformed checksum field in artefact header".into())
        })?;
    Ok((version, stored))
}

/// The checksum recorded in a `.gx` file's header line — the genext's
/// contribution to an artefact directory's identity. Only the header
/// line is read and validated (magic, version, kind, checksum field);
/// the payload is neither read nor verified here: [`load_gx_unit`]
/// verifies it whenever the genext is linked.
///
/// # Errors
///
/// I/O failures or [`CogenError::Format`] on a malformed header.
pub fn gx_header_checksum(path: impl AsRef<Path>) -> Result<u64, CogenError> {
    // A well-formed header line is 42 bytes; anything without a newline
    // in the first 128 is not one.
    const HEADER_MAX: usize = 128;
    let file = fs::File::open(path)?.take(HEADER_MAX as u64);
    let mut line = Vec::with_capacity(HEADER_MAX);
    BufReader::with_capacity(HEADER_MAX, file).read_until(b'\n', &mut line)?;
    let header = line
        .strip_suffix(b"\n")
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or_else(|| missing_header("gx"))?;
    Ok(parse_header("gx", header, &[ARTEFACT_VERSION, GX_VERSION_SEEKABLE])?.1)
}

/// Writes a genext to a `.gx` file (recording no import fingerprints —
/// use [`store_gx_with`] when they are known).
///
/// # Errors
///
/// I/O or serialisation failures.
pub fn store_gx(path: impl AsRef<Path>, gx: &GenModule) -> Result<(), CogenError> {
    store_gx_with(path, gx, &[])
}

/// Writes a genext to a `.gx` file, recording the interface
/// fingerprints of the imports it was generated against. The linker
/// revalidates these against the `.bti` files present at link time.
///
/// # Errors
///
/// I/O or serialisation failures.
pub fn store_gx_with(
    path: impl AsRef<Path>,
    gx: &GenModule,
    ifaces: &[(ModName, u64)],
) -> Result<(), CogenError> {
    // Seekable v2 layout: one compact offset-table line, then the
    // function encodings concatenated. Offsets are byte positions into
    // the body region (everything after the table line's newline).
    let mut body = String::new();
    let mut table: Vec<Json> = Vec::with_capacity(gx.fns.len());
    for f in &gx.fns {
        let enc = f.to_json_compact();
        table.push(Json::Arr(vec![
            f.name.to_json_value(),
            Json::Num(body.len() as u128),
            Json::Num(enc.len() as u128),
        ]));
        body.push_str(&enc);
    }
    let index = Json::obj([
        ("name", Json::str(gx.name.as_str())),
        (
            "imports",
            Json::Arr(gx.imports.iter().map(|m| Json::str(m.as_str())).collect()),
        ),
        ("ifaces", ifaces_to_json(ifaces)),
        ("fns", Json::Arr(table)),
    ])
    .write_compact();
    let payload = format!("{index}\n{body}");
    atomic_write(path, encode_artefact_v(GX_VERSION_SEEKABLE, "gx", &payload))?;
    Ok(())
}

fn ifaces_to_json(ifaces: &[(ModName, u64)]) -> Json {
    Json::Arr(
        ifaces
            .iter()
            .map(|(m, fp)| Json::Arr(vec![Json::str(m.as_str()), Json::Num(u128::from(*fp))]))
            .collect(),
    )
}

fn ifaces_from_json(j: &Json) -> Result<Vec<(ModName, u64)>, CogenError> {
    j.as_arr()
        .map_err(jerr)?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return Err(JsonError("interface record is not a [module, fnv] pair".into()));
            }
            Ok((ModName::new(pair[0].as_str()?), pair[1].as_u64()?))
        })
        .collect::<Result<Vec<_>, JsonError>>()
        .map_err(jerr)
}

/// A module loaded from a `.gx` file, functions possibly still encoded.
#[derive(Debug)]
pub struct GxUnit {
    /// The linker-facing module: from a seekable (v2) file its
    /// functions are [`FnUnit::Encoded`] slices, decoded only on first
    /// lookup; from a v1 file they are eagerly decoded.
    pub unit: LinkUnit,
    /// Interface fingerprints recorded when the genext was generated.
    pub ifaces: Vec<(ModName, u64)>,
    /// Payload bytes JSON-parsed at load time: the whole payload for
    /// v1, just the offset-table line for v2. Feeds the
    /// `io.gx_bytes_decoded` telemetry counter.
    pub eager_decoded: u64,
}

/// Reads a `.gx` file back, validating header and checksum.
///
/// # Errors
///
/// I/O failures or [`CogenError::Format`] on corrupt content.
pub fn load_gx(path: impl AsRef<Path>) -> Result<GenModule, CogenError> {
    Ok(load_gx_full(path)?.0)
}

/// Reads a `.gx` file back together with the interface fingerprints
/// recorded when it was generated, eagerly decoding every function.
///
/// # Errors
///
/// I/O failures or [`CogenError::Format`] on corrupt content.
pub fn load_gx_full(
    path: impl AsRef<Path>,
) -> Result<(GenModule, Vec<(ModName, u64)>), CogenError> {
    let gxu = load_gx_unit(path)?;
    let fns = gxu
        .unit
        .fns
        .into_iter()
        .map(|f| match f {
            FnUnit::Ready(g) => Ok(*g),
            FnUnit::Encoded { encoded, .. } => GenFn::from_json_str(&encoded).map_err(jerr),
        })
        .collect::<Result<Vec<_>, CogenError>>()?;
    Ok((GenModule { name: gxu.unit.name, imports: gxu.unit.imports, fns }, gxu.ifaces))
}

/// Reads a `.gx` file back *without decoding its functions* when the
/// file is seekable (v2): the whole payload is still read and
/// checksum-verified (corruption anywhere is detected), but only the
/// offset-table line is JSON-parsed; each function stays an encoded
/// slice until [`GenProgram::link_units`](mspec_genext::GenProgram)
/// first looks it up. v1 files fall back to eager decoding.
///
/// # Errors
///
/// I/O failures or [`CogenError::Format`] on corrupt content.
pub fn load_gx_unit(path: impl AsRef<Path>) -> Result<GxUnit, CogenError> {
    let text = fs::read_to_string(path)?;
    let (payload, _, version) =
        decode_artefact_versions("gx", &text, &[ARTEFACT_VERSION, GX_VERSION_SEEKABLE])?;
    if version == ARTEFACT_VERSION {
        // v1: a single JSON document, decoded eagerly.
        let j = Json::parse(payload).map_err(jerr)?;
        let gx =
            GenModule::from_json_value(j.get("module").map_err(jerr)?).map_err(jerr)?;
        let ifaces = ifaces_from_json(j.get("ifaces").map_err(jerr)?)?;
        return Ok(GxUnit {
            unit: LinkUnit::from(gx),
            ifaces,
            eager_decoded: payload.len() as u64,
        });
    }
    // v2: offset-table line + concatenated function encodings.
    let (index_line, body) = payload.split_once('\n').ok_or_else(|| {
        CogenError::Format("seekable gx payload is missing its offset-table line".into())
    })?;
    let j = Json::parse(index_line).map_err(jerr)?;
    let name = ModName::new(j.get("name").map_err(jerr)?.as_str().map_err(jerr)?);
    let imports = j
        .get("imports")
        .map_err(jerr)?
        .as_arr()
        .map_err(jerr)?
        .iter()
        .map(|m| Ok(ModName::new(m.as_str()?)))
        .collect::<Result<Vec<_>, JsonError>>()
        .map_err(jerr)?;
    let ifaces = ifaces_from_json(j.get("ifaces").map_err(jerr)?)?;
    let mut fns = Vec::new();
    for entry in j.get("fns").map_err(jerr)?.as_arr().map_err(jerr)? {
        let parts = entry.as_arr().map_err(jerr)?;
        if parts.len() != 3 {
            return Err(CogenError::Format(
                "offset-table entry is not a [name, start, len] triple".into(),
            ));
        }
        let fname = QualName::from_json_value(&parts[0]).map_err(jerr)?;
        let start = parts[1].as_usize().map_err(jerr)?;
        let len = parts[2].as_usize().map_err(jerr)?;
        let encoded = start
            .checked_add(len)
            .and_then(|end| body.get(start..end))
            .ok_or_else(|| {
                CogenError::Format(format!(
                    "offset table points outside the function body region \
                     ({fname}: {start}+{len} of {})",
                    body.len()
                ))
            })?;
        fns.push(FnUnit::Encoded { name: fname, encoded: encoded.into() });
    }
    Ok(GxUnit {
        unit: LinkUnit { name, imports, fns },
        ifaces,
        eager_decoded: index_line.len() as u64 + 1,
    })
}

/// Writes a binding-time interface to a `.bti` file.
///
/// # Errors
///
/// I/O or serialisation failures.
pub fn store_bti(path: impl AsRef<Path>, iface: &BtInterface) -> Result<(), CogenError> {
    write_bti(path.as_ref(), iface).map(|_| ())
}

/// [`store_bti`], returning the written file's fingerprint.
fn write_bti(path: &Path, iface: &BtInterface) -> Result<u64, CogenError> {
    let json = iface.to_json().map_err(jerr)?;
    atomic_write(path, encode_artefact("bti", &json))?;
    Ok(fnv64(json.as_bytes()))
}

/// Reads a `.bti` file back, validating header and checksum.
///
/// # Errors
///
/// I/O failures or [`CogenError::Format`] on corrupt content.
pub fn load_bti(path: impl AsRef<Path>) -> Result<BtInterface, CogenError> {
    Ok(load_bti_full(path)?.0)
}

/// Reads a `.bti` file back together with its fingerprint (the payload
/// checksum — the identity a `.gx` records for this interface).
///
/// # Errors
///
/// I/O failures or [`CogenError::Format`] on corrupt content.
pub fn load_bti_full(path: impl AsRef<Path>) -> Result<(BtInterface, u64), CogenError> {
    let text = fs::read_to_string(path)?;
    let (payload, fp) = decode_artefact("bti", &text)?;
    let iface = BtInterface::from_json(payload).map_err(jerr)?;
    Ok((iface, fp))
}

/// The fingerprint of a `.bti` file on disk: its verified payload
/// checksum. The header and checksum are validated exactly as by
/// [`load_bti`], but the interface itself is not decoded — only
/// analysis needs it.
///
/// # Errors
///
/// I/O failures or [`CogenError::Format`] on corrupt content.
pub fn bti_fingerprint(path: impl AsRef<Path>) -> Result<u64, CogenError> {
    let text = fs::read_to_string(path)?;
    Ok(decode_artefact("bti", &text)?.1)
}

/// The name/arity signature of a module — everything a *client's
/// resolver* needs, written alongside `.bti`/`.gx` so that client
/// modules can be resolved, analysed and cogen'd with no library source
/// at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigFile {
    /// The module's name.
    pub module: ModName,
    /// Its direct imports (so the stubbed module graph validates).
    pub imports: Vec<ModName>,
    /// Exported function names with their arities.
    pub fns: Vec<(Ident, usize)>,
}

impl ToJson for SigFile {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("module", Json::str(self.module.as_str())),
            (
                "imports",
                Json::Arr(self.imports.iter().map(|m| Json::str(m.as_str())).collect()),
            ),
            (
                "fns",
                Json::Arr(
                    self.fns
                        .iter()
                        .map(|(n, a)| {
                            Json::Arr(vec![Json::str(n.as_str()), Json::Num(*a as u128)])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for SigFile {
    fn from_json_value(j: &Json) -> Result<SigFile, JsonError> {
        let module = ModName::new(j.get("module")?.as_str()?);
        let imports = j
            .get("imports")?
            .as_arr()?
            .iter()
            .map(|m| Ok(ModName::new(m.as_str()?)))
            .collect::<Result<Vec<_>, JsonError>>()?;
        let fns = j
            .get("fns")?
            .as_arr()?
            .iter()
            .map(|f| {
                let pair = f.as_arr()?;
                if pair.len() != 2 {
                    return Err(JsonError("signature entry is not a [name, arity] pair".into()));
                }
                Ok((Ident::new(pair[0].as_str()?), pair[1].as_usize()?))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(SigFile { module, imports, fns })
    }
}

impl SigFile {
    /// Extracts the signature of a module.
    pub fn of(module: &Module) -> SigFile {
        SigFile {
            module: module.name,
            imports: module.imports.clone(),
            fns: module.defs.iter().map(|d| (d.name, d.arity())).collect(),
        }
    }

    /// Builds a resolution *stub*: a module with the right names and
    /// arities whose bodies are dummies. Only ever fed to the resolver,
    /// never analysed or run.
    pub fn stub(&self) -> Module {
        Module::new(
            self.module,
            self.imports.clone(),
            self.fns
                .iter()
                .map(|(name, arity)| {
                    Def::new(
                        *name,
                        (0..*arity).map(|i| Ident::new(format!("p{i}"))).collect(),
                        Expr::Nat(0),
                    )
                })
                .collect(),
        )
    }
}

/// Writes a signature file.
///
/// # Errors
///
/// I/O or serialisation failures.
pub fn store_sig(path: impl AsRef<Path>, sig: &SigFile) -> Result<(), CogenError> {
    atomic_write(path, sig.to_json_pretty())?;
    Ok(())
}

/// Reads a signature file back.
///
/// # Errors
///
/// I/O failures or [`CogenError::Format`] on corrupt content.
pub fn load_sig(path: impl AsRef<Path>) -> Result<SigFile, CogenError> {
    let text = fs::read_to_string(path)?;
    SigFile::from_json_str(&text).map_err(|e| CogenError::Format(e.to_string()))
}

/// Resolves a *client* module against the `.sig` files in `dir`: the
/// imports (and their transitive imports) are loaded as stubs, so no
/// library source is needed — this is the resolver-side counterpart of
/// analysing against `.bti` files.
///
/// # Errors
///
/// [`CogenError::MissingInterface`] for an import without a `.sig`
/// file, plus resolution errors.
pub fn resolve_client(module: &Module, dir: impl AsRef<Path>) -> Result<Module, CogenError> {
    let dir = dir.as_ref();
    let mut stubs: BTreeMap<ModName, Module> = BTreeMap::new();
    let mut todo: Vec<ModName> = module.imports.clone();
    while let Some(name) = todo.pop() {
        if stubs.contains_key(&name) || name == module.name {
            continue;
        }
        let path = dir.join(format!("{name}.sig"));
        if !path.exists() {
            return Err(CogenError::MissingInterface(name));
        }
        let sig = load_sig(&path)?;
        todo.extend(sig.imports.iter().cloned());
        stubs.insert(name, sig.stub());
    }
    let mut modules: Vec<Module> = stubs.into_values().collect();
    modules.push(module.clone());
    let resolved = mspec_lang::resolve::resolve_program(modules)?;
    resolved
        .program()
        .module(module.name.as_str())
        .cloned()
        .ok_or_else(|| {
            CogenError::Format(format!("client module {} vanished during resolution", module.name))
        })
}

/// The artefacts produced by [`cogen_module`].
#[derive(Debug)]
pub struct CogenOutput {
    /// Path of the written `.bti` interface.
    pub bti: PathBuf,
    /// Path of the written `.gx` genext.
    pub gx: PathBuf,
    /// Path of the written readable genext text.
    pub gen_text: PathBuf,
    /// Path of the written name/arity signature.
    pub sig: PathBuf,
}

/// Runs the cogen for one module: reads the `.bti` files of its imports
/// from `dir`, analyses the module (never its imports' sources), and
/// writes `Module.bti`, `Module.gx` and `GenModule.txt` into `dir`.
///
/// `force_residual` names definitions of this module that must never be
/// unfolded (the paper's hand annotation in §5).
///
/// The module is not typechecked here: neither `.bti` nor `.sig` files
/// carry its imports' types. Both builds in [`crate::build`]
/// typecheck every module before calling this.
///
/// # Errors
///
/// [`CogenError::MissingInterface`] when an import was not processed
/// first, plus any parse/analysis/serialisation error.
pub fn cogen_module(
    module: &Module,
    dir: impl AsRef<Path>,
    force_residual: &BTreeSet<Ident>,
) -> Result<CogenOutput, CogenError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    Ok(cogen_with(module, dir, force_residual, |imp| load_import(dir, imp))?.0)
}

/// An import's interface and fingerprint, read from `dir`.
///
/// # Errors
///
/// [`CogenError::MissingInterface`] when the import was not processed
/// first, or any [`load_bti_full`] error.
pub(crate) fn load_import(dir: &Path, import: ModName) -> Result<(BtInterface, u64), CogenError> {
    let path = dir.join(format!("{import}.bti"));
    if !path.exists() {
        return Err(CogenError::MissingInterface(import));
    }
    load_bti_full(&path)
}

/// [`cogen_module`] with each import's interface and fingerprint taken
/// from `import`. Also returns the module's new interface and the
/// fingerprint of the `.bti` written for it, so a build can hand both
/// to importers without reading the file back.
pub(crate) fn cogen_with(
    module: &Module,
    dir: &Path,
    force_residual: &BTreeSet<Ident>,
    mut import: impl FnMut(ModName) -> Result<(BtInterface, u64), CogenError>,
) -> Result<(CogenOutput, BtInterface, u64), CogenError> {
    let mut imports = BTreeMap::new();
    let mut fingerprints: Vec<(ModName, u64)> = Vec::new();
    for imp in &module.imports {
        let (iface, fp) = import(*imp)?;
        imports.insert(*imp, iface);
        fingerprints.push((*imp, fp));
    }
    let ann = analyse_module_with(module, &imports, force_residual)?;
    let gx = compile_module(&ann);
    let text = textual_genext(&ann);

    let bti_path = dir.join(format!("{}.bti", module.name));
    let gx_path = dir.join(format!("{}.gx", module.name));
    let text_path = dir.join(format!("Gen{}.txt", module.name));
    let sig_path = dir.join(format!("{}.sig", module.name));
    let fp = write_bti(&bti_path, &ann.interface)?;
    store_gx_with(&gx_path, &gx, &fingerprints)?;
    atomic_write(&text_path, text)?;
    store_sig(&sig_path, &SigFile::of(module))?;
    let out = CogenOutput { bti: bti_path, gx: gx_path, gen_text: text_path, sig: sig_path };
    Ok((out, ann.interface, fp))
}

/// Convenience: parses module source text, resolves it against the
/// `.sig` files already in `dir` (no library source!), and runs
/// [`cogen_module`], which does not typecheck.
///
/// # Errors
///
/// See [`cogen_module`] and [`resolve_client`].
pub fn cogen_source(
    src: &str,
    dir: impl AsRef<Path>,
    force_residual: &BTreeSet<Ident>,
) -> Result<CogenOutput, CogenError> {
    let module = parse_module(src)?;
    let module = resolve_client(&module, dir.as_ref())?;
    cogen_module(&module, dir, force_residual)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use mspec_genext::GenProgram;
    use mspec_lang::parser::parse_program;
    use mspec_lang::resolve::resolve;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mspec-cogen-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn gx_roundtrip_through_files() {
        let dir = tmpdir("roundtrip");
        let rp = resolve(
            parse_program("module P where\npower n x = if n == 1 then x else x * power (n - 1) x\n")
                .unwrap(),
        )
        .unwrap();
        let module = rp.program().modules[0].clone();
        let out = cogen_module(&module, &dir, &BTreeSet::new()).unwrap();
        assert!(out.bti.exists());
        assert!(out.gx.exists());
        assert!(out.gen_text.exists());
        let gx = load_gx(&out.gx).unwrap();
        assert_eq!(gx.name.as_str(), "P");
        assert_eq!(gx.fns.len(), 1);
        // The loaded genext links into a runnable program.
        assert!(GenProgram::link(vec![gx]).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn imports_need_interfaces_first() {
        let dir = tmpdir("order");
        let rp = resolve(
            parse_program(
                "module A where\nf x = x + 1\nmodule B where\nimport A\ng y = f y\n",
            )
            .unwrap(),
        )
        .unwrap();
        let a = rp.program().module("A").unwrap().clone();
        let b = rp.program().module("B").unwrap().clone();
        // B before A: missing interface.
        let err = cogen_module(&b, &dir, &BTreeSet::new()).unwrap_err();
        assert!(matches!(err, CogenError::MissingInterface(_)), "{err}");
        // A then B: fine, and B never touched A's source.
        cogen_module(&a, &dir, &BTreeSet::new()).unwrap();
        cogen_module(&b, &dir, &BTreeSet::new()).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bti_files_have_header_and_json_payload() {
        let dir = tmpdir("bti");
        let rp = resolve(parse_program("module A where\nf x = x + 1\n").unwrap()).unwrap();
        let a = rp.program().modules[0].clone();
        let out = cogen_module(&a, &dir, &BTreeSet::new()).unwrap();
        let text = fs::read_to_string(&out.bti).unwrap();
        let (header, payload) = text.split_once('\n').unwrap();
        assert!(header.starts_with("#mspec-artefact v1 bti fnv:"), "{header}");
        let iface = BtInterface::from_json(payload).unwrap();
        assert!(iface.get(&Ident::new("f")).is_some());
        // The fingerprint accessor agrees with the header.
        let fp = bti_fingerprint(&out.bti).unwrap();
        assert!(header.ends_with(&format!("{fp:016x}")), "{header} vs {fp:016x}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_gx_reports_format_error() {
        let dir = tmpdir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.gx");
        fs::write(&path, "not json").unwrap();
        assert!(matches!(load_gx(&path), Err(CogenError::Format(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let dir = tmpdir("bitflip");
        let rp = resolve(
            parse_program("module P where\npower n x = if n == 1 then x else x * power (n - 1) x\n")
                .unwrap(),
        )
        .unwrap();
        let module = rp.program().modules[0].clone();
        let out = cogen_module(&module, &dir, &BTreeSet::new()).unwrap();
        let clean = fs::read(&out.gx).unwrap();
        // Flip one bit at a spread of offsets (header and payload):
        // every corruption must surface as CogenError::Format, never a
        // panic or a silently-loaded artefact.
        for pos in (0..clean.len()).step_by(7) {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x10;
            fs::write(&out.gx, &bytes).unwrap();
            match load_gx(&out.gx) {
                Err(CogenError::Format(_)) => {}
                other => panic!("flip at {pos}: expected Format error, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_version_is_rejected_not_misread() {
        let dir = tmpdir("version");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("F.bti");
        let text = encode_artefact("bti", "{}").replacen("v1", "v9", 1);
        fs::write(&path, text).unwrap();
        let err = load_bti(&path).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let dir = tmpdir("kind");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sneaky.gx");
        fs::write(&path, encode_artefact("bti", "{}")).unwrap();
        let err = load_gx(&path).unwrap_err();
        assert!(err.to_string().contains("`bti`"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gx_records_import_fingerprints() {
        let dir = tmpdir("fp");
        let rp = resolve(
            parse_program("module A where\nf x = x + 1\nmodule B where\nimport A\ng y = f y\n")
                .unwrap(),
        )
        .unwrap();
        let a = rp.program().module("A").unwrap().clone();
        let b = rp.program().module("B").unwrap().clone();
        let out_a = cogen_module(&a, &dir, &BTreeSet::new()).unwrap();
        let out_b = cogen_module(&b, &dir, &BTreeSet::new()).unwrap();
        let (_, ifaces) = load_gx_full(&out_b.gx).unwrap();
        assert_eq!(ifaces.len(), 1);
        assert_eq!(ifaces[0].0.as_str(), "A");
        assert_eq!(ifaces[0].1, bti_fingerprint(&out_a.bti).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gx_files_are_seekable_v2() {
        let dir = tmpdir("v2");
        let rp = resolve(
            parse_program(
                "module P where\npower n x = if n == 1 then x else x * power (n - 1) x\ntwice x = x + x\n",
            )
            .unwrap(),
        )
        .unwrap();
        let module = rp.program().modules[0].clone();
        let out = cogen_module(&module, &dir, &BTreeSet::new()).unwrap();
        let text = fs::read_to_string(&out.gx).unwrap();
        let (header, payload) = text.split_once('\n').unwrap();
        assert!(header.starts_with("#mspec-artefact v2 gx fnv:"), "{header}");
        // The offset table is one JSON line; function bodies follow it.
        let (index_line, _body) = payload.split_once('\n').unwrap();
        let j = Json::parse(index_line).unwrap();
        assert_eq!(j.get("fns").unwrap().as_arr().unwrap().len(), 2);
        // Lazy loading parses only the table line...
        let gxu = load_gx_unit(&out.gx).unwrap();
        assert!(gxu.eager_decoded < payload.len() as u64);
        assert!(gxu.unit.fns.iter().all(|f| matches!(f, FnUnit::Encoded { .. })));
        // ...while the eager loader still reconstructs the module.
        let eager = load_gx(&out.gx).unwrap();
        assert_eq!(eager.fns.len(), 2);
        assert!(GenProgram::link(vec![eager]).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_gx_files_still_load() {
        let dir = tmpdir("v1compat");
        let rp = resolve(
            parse_program("module P where\npower n x = if n == 1 then x else x * power (n - 1) x\n")
                .unwrap(),
        )
        .unwrap();
        let module = rp.program().modules[0].clone();
        let out = cogen_module(&module, &dir, &BTreeSet::new()).unwrap();
        let modern = load_gx(&out.gx).unwrap();
        // Rewrite the same module in the v1 single-document layout.
        let payload = Json::obj([
            ("ifaces", Json::Arr(vec![])),
            ("module", modern.to_json_value()),
        ])
        .write_compact();
        fs::write(&out.gx, encode_artefact("gx", &payload)).unwrap();
        let gxu = load_gx_unit(&out.gx).unwrap();
        // v1 decodes eagerly: the whole payload counts as decoded.
        assert_eq!(gxu.eager_decoded, payload.len() as u64);
        assert!(gxu.unit.fns.iter().all(|f| matches!(f, FnUnit::Ready(_))));
        assert_eq!(load_gx(&out.gx).unwrap(), modern);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_offset_table_out_of_range_is_rejected() {
        let dir = tmpdir("v2range");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.gx");
        let payload = "{\"name\":\"M\",\"imports\":[],\"ifaces\":[],\"fns\":[[[\"M\",\"f\"],10,999]]}\nshortbody";
        fs::write(&path, encode_artefact_v(GX_VERSION_SEEKABLE, "gx", payload)).unwrap();
        match load_gx_unit(&path) {
            Err(CogenError::Format(msg)) => assert!(msg.contains("offset table"), "{msg}"),
            other => panic!("expected Format error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_without_leftovers() {
        let dir = tmpdir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.gx");
        atomic_write(&path, "first").unwrap();
        atomic_write(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        // No temp files survive a successful write.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n != "a.gx")
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cogen_source_parses_and_runs() {
        let dir = tmpdir("src");
        let out = cogen_source("module M where\nid x = x\n", &dir, &BTreeSet::new()).unwrap();
        assert!(out.gx.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
