//! Build-time generator for the compiled straight-line kernels.
//!
//! For every shape of [`COMPILED_SHAPES`] this emits `A·xᵐ` and `A·xᵐ⁻¹`
//! in two forms from one walk over the shape's index classes: scalar
//! kernels over one packed tensor (`unrolled::UnrolledKernels`), and lane
//! panels over one `lanes::LanePanel` (a loop over the `LANE_WIDTH` lanes
//! around the same code). Every index representation and coefficient is
//! resolved here, at build time: the paper's Section V-D unrolling.
//!
//! Both forms use exactly the arithmetic of `PrecomputedTables`: classes
//! in lexicographic order, each term `c · a_u · (((x_i1 · x_i2) · x_i3) · …)`
//! accumulated from zero, and `σ = c·k_j/m` for `A·xᵐ⁻¹`. So every
//! compiled kernel is bitwise identical to the table walk it replaces. The
//! index classes come from the crate's own `index` and `multinomial`
//! modules, which depend only on each other and `std`.

use std::env;
use std::fs;
use std::path::PathBuf;

#[allow(dead_code)]
#[path = "src/multinomial.rs"]
mod multinomial;

#[allow(dead_code)]
#[path = "src/index.rs"]
mod index;

use index::IndexClassIter;
use multinomial::{multinomial0, multinomial1_from_stored};

/// The shapes that get compiled kernels, as scalar straight-line code and
/// as lane panels. `(4, 3)` is the paper's application shape; the rest
/// cover the occupancy ablation (Section V-E grows m and n until
/// performance drops past "order 4 and dimension 5").
const COMPILED_SHAPES: &[(usize, usize)] = &[
    (2, 3),
    (3, 2),
    (3, 3),
    (4, 3),
    (4, 4),
    (4, 5),
    (5, 3),
    (6, 3),
];

fn main() {
    let out_dir = PathBuf::from(env::var("OUT_DIR").expect("OUT_DIR set by cargo"));
    let header = "// @generated by build.rs — do not edit.\n\n";
    let mut scalar = String::from(header);
    let mut lanes = String::from(header);
    write_shape_list(&mut lanes);
    for &(m, n) in COMPILED_SHAPES {
        let terms = Terms::walk(m, n);
        write_scalar_module(&mut scalar, &terms);
        write_lane_module(&mut lanes, &terms);
    }
    write_scalar_dispatch(&mut scalar);
    write_lane_dispatch(&mut lanes, "axm", "out");
    write_lane_dispatch(&mut lanes, "axm1", "ys");
    fs::write(out_dir.join("scalar_kernels.rs"), scalar).expect("write generated scalar kernels");
    fs::write(out_dir.join("lane_kernels.rs"), lanes).expect("write generated lane kernels");
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=src/index.rs");
    println!("cargo:rerun-if-changed=src/multinomial.rs");
}

fn write_shape_list(code: &mut String) {
    let shapes: String = COMPILED_SHAPES
        .iter()
        .map(|(m, n)| format!("    ({m}, {n}),\n"))
        .collect();
    code.push_str(&format!(
        "\
/// The shapes `(m, n)` with compiled kernels: straight-line lane panels
/// behind [`LanePanel::axm`]/[`LanePanel::axm1`] here, and the scalar
/// [`UnrolledKernels`], generated from this same list. Every other shape
/// walks the shared index tables.
pub const COMPILED_SHAPES: &[(usize, usize)] = &[
{shapes}];

"
    ));
}

/// One `c · a_u · product` term: `rank` is the class `u`, `coeff` its
/// weight, `factors` the indices of the product.
struct Term {
    rank: usize,
    coeff: u64,
    factors: Vec<usize>,
}

/// A shape's terms in class order: one per class for `A·xᵐ`, and one per
/// distinct index `j` of a class for `A·xᵐ⁻¹`, tagged with `j`.
struct Terms {
    m: usize,
    n: usize,
    u: usize,
    axm: Vec<Term>,
    axm1: Vec<(usize, Term)>,
}

impl Terms {
    fn walk(m: usize, n: usize) -> Self {
        let mut axm = Vec::new();
        let mut axm1 = Vec::new();
        for (rank, class) in IndexClassIter::new(m, n).enumerate() {
            let rep = class.indices().to_vec();
            let c = multinomial0(&rep);
            // `j`'s first occurrence leaves the product and `σ = c·k_j/m`
            // weighs it.
            let mut distinct = rep.clone();
            distinct.dedup();
            for j in distinct {
                let k_j = rep.iter().filter(|&&i| i == j).count();
                let mut reduced = rep.clone();
                if let Some(first) = reduced.iter().position(|&i| i == j) {
                    reduced.remove(first);
                }
                let term = Term {
                    rank,
                    coeff: multinomial1_from_stored(c, k_j, m),
                    factors: reduced,
                };
                axm1.push((j, term));
            }
            axm.push(Term {
                rank,
                coeff: c,
                factors: rep,
            });
        }
        Terms {
            m,
            n,
            u: axm.len(),
            axm,
            axm1,
        }
    }
}

/// `((x_i1 * x_i2) * x_i3) * …` over the locals `x0..`: the tables' left-
/// to-right product, whose leading `1 ·` is exact and so left out.
fn product(indices: &[usize]) -> String {
    if indices.is_empty() {
        return "S::ONE".to_string();
    }
    let factors: Vec<String> = indices.iter().map(|i| format!("x{i}")).collect();
    format!("({})", factors.join(" * "))
}

/// `S::from_u64(c) * <entry> * product`, with `entry` naming `a_u`.
fn term(t: &Term, entry: impl Fn(usize) -> String) -> String {
    format!(
        "S::from_u64({}) * {} * {}",
        t.coeff,
        entry(t.rank),
        product(&t.factors)
    )
}

/// The statements of both kernels' bodies: loads of `x` into locals, the
/// `A·xᵐ` accumulation into `acc`, and the `A·xᵐ⁻¹` accumulations into
/// `y0..` followed by the stores. `entry`/`load`/`store` name a tensor
/// entry, an `x` component and a `y` component in the kernel's layout.
struct Body {
    loads: Vec<String>,
    axm: Vec<String>,
    axm1: Vec<String>,
}

impl Body {
    fn new(
        t: &Terms,
        entry: impl Fn(usize) -> String,
        load: impl Fn(usize) -> String,
        store: impl Fn(usize) -> String,
    ) -> Self {
        let loads = (0..t.n)
            .map(|i| format!("let x{i} = {};", load(i)))
            .collect();
        let mut axm = vec!["let mut acc = S::ZERO;".to_string()];
        axm.extend(t.axm.iter().map(|x| format!("acc += {};", term(x, &entry))));
        let mut axm1: Vec<String> = (0..t.n)
            .map(|j| format!("let mut y{j} = S::ZERO;"))
            .collect();
        axm1.extend(
            t.axm1
                .iter()
                .map(|(j, x)| format!("y{j} += {};", term(x, &entry))),
        );
        axm1.extend((0..t.n).map(|j| format!("{} = y{j};", store(j))));
        Body { loads, axm, axm1 }
    }
}

/// One statement per line at `indent` spaces.
fn lines<'a>(indent: usize, statements: impl IntoIterator<Item = &'a String>) -> String {
    let pad = " ".repeat(indent);
    statements
        .into_iter()
        .map(|s| format!("{pad}{s}\n"))
        .collect()
}

fn write_scalar_module(code: &mut String, t: &Terms) {
    let (m, n, u) = (t.m, t.n, t.u);
    let b = Body::new(
        t,
        |r| format!("a[{r}]"),
        |i| format!("x[{i}]"),
        |j| format!("y[{j}]"),
    );
    let loads = lines(8, &b.loads);
    let axm = lines(8, &b.axm);
    let axm1 = lines(8, &b.axm1);
    code.push_str(&format!(
        "\
/// Scalar kernels for shape (m={m}, n={n}), {u} classes.
mod s{m}_{n} {{
    use super::Scalar;

    pub(super) fn axm<S: Scalar>(a: &[S; {u}], x: &[S; {n}]) -> S {{
{loads}{axm}        acc
    }}

    pub(super) fn axm1<S: Scalar>(a: &[S; {u}], x: &[S; {n}], y: &mut [S; {n}]) {{
{loads}{axm1}    }}
}}

"
    ));
}

/// Lane `w` of row `row` of a component-major lane buffer.
fn lane(buf: &str, row: usize) -> String {
    match row {
        0 => format!("{buf}[w]"),
        1 => format!("{buf}[LANE_WIDTH + w]"),
        _ => format!("{buf}[{row} * LANE_WIDTH + w]"),
    }
}

fn write_lane_module(code: &mut String, t: &Terms) {
    let (m, n, u) = (t.m, t.n, t.u);
    let b = Body::new(t, |r| lane("a", r), |i| lane("x", i), |j| lane("ys", j));
    let loads = lines(12, &b.loads);
    let axm = lines(12, &b.axm);
    let axm1 = lines(12, &b.axm1);
    code.push_str(&format!(
        "\
/// Lane panels for shape (m={m}, n={n}), {u} classes.
mod s{m}_{n} {{
    use super::{{Scalar, LANE_WIDTH}};

    pub(super) fn axm<S: Scalar>(a: &[S; {u} * LANE_WIDTH], x: &[S; {n} * LANE_WIDTH], out: &mut [S; LANE_WIDTH]) {{
        for w in 0..LANE_WIDTH {{
{loads}{axm}            out[w] = acc;
        }}
    }}

    pub(super) fn axm1<S: Scalar>(a: &[S; {u} * LANE_WIDTH], x: &[S; {n} * LANE_WIDTH], ys: &mut [S; {n} * LANE_WIDTH]) {{
        for w in 0..LANE_WIDTH {{
{loads}{axm1}        }}
    }}
}}

"
    ));
}

/// `compiled_axm(m, n, a, x) -> Option<S>` and `compiled_axm1(m, n, a, x,
/// y) -> bool`: run the scalar kernel for `(m, n)` if there is one and
/// every slice has its exact length.
fn write_scalar_dispatch(code: &mut String) {
    let axm: String = COMPILED_SHAPES
        .iter()
        .map(|(m, n)| {
            format!(
                "        ({m}, {n}) => match (a.try_into(), x.try_into()) {{
            (Ok(a), Ok(x)) => Some(s{m}_{n}::axm(a, x)),
            _ => None,
        }},
"
            )
        })
        .collect();
    let axm1: String = COMPILED_SHAPES
        .iter()
        .map(|(m, n)| {
            format!(
                "        ({m}, {n}) => match (a.try_into(), x.try_into(), y.try_into()) {{
            (Ok(a), Ok(x), Ok(y)) => {{ s{m}_{n}::axm1(a, x, y); true }}
            _ => false,
        }},
"
            )
        })
        .collect();
    code.push_str(&format!(
        "\
/// Run the compiled scalar `axm` for `(m, n)`; `None` if the shape has
/// none or a slice is not exactly its length.
fn compiled_axm<S: Scalar>(m: usize, n: usize, a: &[S], x: &[S]) -> Option<S> {{
    match (m, n) {{
{axm}        _ => None,
    }}
}}

/// Run the compiled scalar `axm1` for `(m, n)`; `false`, with `y`
/// untouched, if the shape has none or a slice is not exactly its length.
fn compiled_axm1<S: Scalar>(m: usize, n: usize, a: &[S], x: &[S], y: &mut [S]) -> bool {{
    match (m, n) {{
{axm1}        _ => false,
    }}
}}
"
    ));
}

/// `fn compiled_<op>(m, n, soa, xs, dst) -> bool`: run the compiled panel
/// for `(m, n)` if there is one and every buffer has its exact length.
fn write_lane_dispatch(code: &mut String, op: &str, dst: &str) {
    let arms: String = COMPILED_SHAPES
        .iter()
        .map(|(m, n)| {
            format!(
                "        ({m}, {n}) => match (soa.try_into(), xs.try_into(), {dst}.try_into()) {{
            (Ok(soa), Ok(xs), Ok({dst})) => {{ s{m}_{n}::{op}(soa, xs, {dst}); true }}
            _ => false,
        }},
"
            )
        })
        .collect();
    code.push_str(&format!(
        "\
/// Run the compiled `{op}` panel for `(m, n)`; `false`, with `{dst}`
/// untouched, if the shape has none or a buffer is not exactly its length.
fn compiled_{op}<S: Scalar>(m: usize, n: usize, soa: &[S], xs: &[S], {dst}: &mut [S]) -> bool {{
    match (m, n) {{
{arms}        _ => false,
    }}
}}

"
    ));
}
