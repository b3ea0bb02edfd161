//! Text mutations shared by the frontend rails: the ways editors and
//! fuzzers break a source file, at the byte and at the token level.

/// Clamps `i` into `s` on a char boundary.
pub fn boundary(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Applies one textual mutation, selected and parameterised by `which`
/// and two free parameters interpreted per mutation kind.
pub fn mutate(text: &str, which: u8, a: usize, b: usize) -> String {
    if text.is_empty() {
        return text.to_owned();
    }
    match which % 6 {
        // Delete a byte span (severed identifiers, lost braces).
        0 => {
            let i = boundary(text, a % (text.len() + 1));
            let j = boundary(text, i + 1 + b % 8);
            let (i, j) = (i.min(j), j.max(i));
            format!("{}{}", &text[..i], &text[j..])
        }
        // Duplicate a byte span (stuttered operators, doubled digits).
        1 => {
            let i = boundary(text, a % (text.len() + 1));
            let j = boundary(text, i + 1 + b % 16);
            let (i, j) = (i.min(j), j.max(i));
            format!("{}{}{}", &text[..j], &text[i..j], &text[j..])
        }
        // Splice a byte span somewhere else (statements moved across
        // function boundaries).
        2 => {
            let i = boundary(text, a % (text.len() + 1));
            let j = boundary(text, i + 1 + a % 12);
            let (i, j) = (i.min(j), j.max(i));
            let moved = text[i..j].to_owned();
            let rest = format!("{}{}", &text[..i], &text[j..]);
            let at = boundary(&rest, b % (rest.len() + 1));
            format!("{}{}{}", &rest[..at], moved, &rest[at..])
        }
        // Token-level delete/duplicate/splice: lex first (falling back
        // to the input when it no longer lexes) and re-render the
        // mangled token stream.
        w => {
            let Ok(mut toks) = sra::lang::lex(text) else {
                return text.to_owned();
            };
            if toks.is_empty() {
                return text.to_owned();
            }
            match w {
                3 => {
                    toks.remove(a % toks.len());
                }
                4 => {
                    let t = toks[a % toks.len()].clone();
                    let at = b % (toks.len() + 1);
                    toks.insert(at, t);
                }
                _ => {
                    let t = toks.remove(a % toks.len());
                    let at = b % (toks.len() + 1);
                    toks.insert(at, t);
                }
            }
            toks.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        }
    }
}
