"""Failure prediction and root-cause troubleshooting for multivariate KPI telemetry.

The pipeline: an autoencoder learns normal system states and flags
reconstruction-error outliers; per-KPI residuals isolate the anomalous
signals; pairwise Granger tests build a causality graph whose reversed-edge
PageRank ranks root-cause candidates; a retrieval-augmented prompt over a
troubleshooting knowledge base turns the top suspects into guidance.  A
simulator with known causal structure and fault injection drives evaluation.
"""

__version__ = "0.1.0"
