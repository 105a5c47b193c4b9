"""Advanced baselines from §5: inverted-index algorithms INV/INV+/INC/INC+
and the Neo4j-style graph database stand-in."""
