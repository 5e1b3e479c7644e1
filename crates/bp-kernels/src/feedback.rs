//! Feedback-loop support (§III-D): a feedback kernel breaks cycles in the
//! application graph and provides the loop's initial values — it "outputs
//! the initial values once and then passes on its input values thereafter".

use bp_core::kernel::{
    Emitter, FireData, KernelBehavior, KernelDef, KernelSpec, NodeRole, ShapeTransform,
};
use bp_core::method::{MethodCost, MethodSpec};
use bp_core::port::{InputSpec, OutputSpec};
use bp_core::token::ControlToken;
use bp_core::{Dim2, Window};

struct FeedbackBehavior {
    frame: Dim2,
    initial: f64,
}

impl KernelBehavior for FeedbackBehavior {
    // Spec order: 0 = init, 1 = pass.
    fn fire(&mut self, method: usize, d: &FireData<'_>, out: &mut Emitter<'_>) {
        match method {
            0 => {
                // Prime the loop with one full initial frame, in scan-line
                // order with the usual tokens.
                for _y in 0..self.frame.h {
                    for _x in 0..self.frame.w {
                        out.window_at(0, Window::scalar(self.initial));
                    }
                    out.token_at(0, ControlToken::EndOfLine);
                }
                out.token_at(0, ControlToken::EndOfFrame);
            }
            1 => {
                out.window_at(0, Window::scalar(d.window_at(0).as_scalar()));
            }
            _ => unreachable!("feedback has no such method"),
        }
    }
}

/// A feedback kernel for frame-delay loops: primes the cycle with one
/// `frame`-sized image filled with `initial`, then forwards its input
/// stream unchanged (tokens pass through automatically). The data-flow
/// analysis ignores edges leaving feedback kernels, which is what makes
/// cyclic graphs analyzable (§III-D).
pub fn feedback_frame(frame: Dim2, initial: f64) -> KernelDef {
    let spec = KernelSpec::new("feedback")
        .with_role(NodeRole::Feedback)
        .with_shape(ShapeTransform::Transparent)
        // One window per sample, one EndOfLine per row, one EndOfFrame:
        // the loop population the capacity derivation must accommodate.
        .with_initial_tokens(frame.area() + frame.h as u64 + 1)
        .input(InputSpec::stream("in"))
        .output(OutputSpec::stream("out"))
        .method(MethodSpec::source(
            "init",
            vec!["out".into()],
            MethodCost::new(2, 0),
        ))
        .method(MethodSpec::on_data(
            "pass",
            "in",
            vec!["out".into()],
            MethodCost::new(1, 0),
        ))
        .with_state_words(2);
    KernelDef::new(spec, move || FeedbackBehavior { frame, initial })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::Item;

    #[test]
    fn init_emits_one_full_frame() {
        let def = feedback_frame(Dim2::new(3, 2), 0.5);
        let mut b = (def.factory)();
        let consumed: Vec<(usize, Item)> = Vec::new();
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire(0, &data, &mut out);
        let items = out.into_items();
        let pixels = items.iter().filter(|(_, i)| i.is_window()).count();
        let eols = items
            .iter()
            .filter(|(_, i)| matches!(i, Item::Control(ControlToken::EndOfLine)))
            .count();
        let eofs = items
            .iter()
            .filter(|(_, i)| matches!(i, Item::Control(ControlToken::EndOfFrame)))
            .count();
        assert_eq!((pixels, eols, eofs), (6, 2, 1));
        assert!(items[0].1.window().unwrap().as_scalar() == 0.5);
    }

    #[test]
    fn pass_forwards_data() {
        let def = feedback_frame(Dim2::new(2, 2), 0.0);
        let mut b = (def.factory)();
        let consumed = vec![(0usize, Item::Window(Window::scalar(3.25)))];
        let data = FireData::new(&def.spec, &consumed);
        let mut out = Emitter::new(&def.spec);
        b.fire(1, &data, &mut out);
        let items = out.into_items();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].1.window().unwrap().as_scalar(), 3.25);
    }

    #[test]
    fn role_is_feedback() {
        assert_eq!(feedback_frame(Dim2::ONE, 0.0).spec.role, NodeRole::Feedback);
    }
}
