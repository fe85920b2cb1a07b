//! A hostile AST document nested far deeper than any real program must
//! fail to parse with an error, not overflow the parser's stack.

use minigo::ast::Expr;

#[test]
fn ten_thousand_deep_expr_is_an_error_not_a_stack_overflow() {
    let depth = 10_000;
    for (open, close) in [
        (r#"{"Len":"#, "}"),
        (r#"{"Unary":["Neg","#, "]}"),
        (r#"{"Index":[{"Int":0},"#, "]}"),
        (r#"{"ListLit":["#, "]}"),
    ] {
        let text = format!(
            "{}{}{}",
            open.repeat(depth),
            r#"{"Int":1}"#,
            close.repeat(depth)
        );
        let err = serde_json::from_str::<Expr>(&text).unwrap_err();
        assert!(
            err.to_string().contains("nesting too deep"),
            "{open}: {err}"
        );
    }
    // Within the limit the same shape parses.
    let text = format!(
        "{}{}{}",
        r#"{"Len":"#.repeat(100),
        r#"{"Int":1}"#,
        "}".repeat(100)
    );
    assert!(serde_json::from_str::<Expr>(&text).is_ok());
}
