"""Engine protocol, the shared final-join assembler, and the stream runner
(timing + execution-time threshold, mirroring the paper's 24 h cap)."""
