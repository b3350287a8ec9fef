//! Justification fixture: suppression, unused, malformed.

pub fn suppressed(v: Option<u32>) -> u32 {
    // analyze:allow(SQS-P02): fixture demonstrates suppression.
    v.expect("value missing")
}

pub fn unused_justification() {
    // analyze:allow(SQS-P02): nothing on this or the next line fires.
}

pub fn malformed(v: Option<u32>) -> u32 {
    // analyze:allow(SQS-P02) reason lacks the leading colon
    v.expect("value missing")
}
