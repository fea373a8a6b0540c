//@ path: crates/chain/src/fixture_meta.rs
// Fixture: the engine's meta rules — suppression-hygiene (reasonless,
// malformed, or unknown-rule suppressions are themselves findings, and are
// not suppressible) and unused-suppression (stale annotations are flagged
// unless self-exempted).

fn reasonless(g: f64) -> bool {
    g > 1e-12 // txallo-lint: allow(D2-eps-literal)
    //~^ D2-eps-literal
    //~^^ suppression-hygiene
}

fn short_reason(g: f64) -> bool {
    g > 1e-12 // txallo-lint: allow(D2-eps-literal) — ok
    //~^ D2-eps-literal
    //~^^ suppression-hygiene
}

fn unknown_rule() {} // txallo-lint: allow(no-such-rule) — a perfectly long reason for a rule that does not exist
//~^ suppression-hygiene

fn hygiene_is_not_suppressible(g: f64) -> bool {
    // Naming the meta rule cannot silence the hygiene finding: with no
    // written reason the literal stays active too, and the audit failure
    // survives alongside it.
    g > 1e-12 // txallo-lint: allow(D2-eps-literal, suppression-hygiene)
    //~^ D2-eps-literal
    //~^^ suppression-hygiene
}

fn stale() {} // txallo-lint: allow(D2-eps-literal) — no literal is left on this line
//~^ unused-suppression

fn stale_but_kept() {} // txallo-lint: allow(D2-eps-literal, unused-suppression) — annotation kept deliberately for the cfg'd-out debug path
