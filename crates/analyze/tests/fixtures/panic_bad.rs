//! Panic-discipline fixture: the golden test pins (rule, line).

pub fn unwrap_is_clippys(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn bad_expect(v: Option<u32>) -> u32 {
    v.expect("value missing")
}

pub fn good_expect(v: Option<u32>) -> u32 {
    v.expect("fixture invariant: caller checked emptiness")
}

pub fn unwrap_or_is_not_unwrap(v: Option<u32>) -> u32 {
    v.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        assert_eq!(Some(1).unwrap(), 1);
    }
}
