"""Architectural Vulnerability Factor.

The paper uses a flat AVF of 0.7 for dirty data ("all Loads from dirty
data may cause a failure").
"""

#: The paper's Section 6.3 assumption.
PAPER_AVF = 0.7
