"""Workload generators: WebSearch, Poisson arrivals, coflows."""

from .coflow_trace import CoflowSpec, synthesize_coflows
from .distributions import (ALI_STORAGE_CDF, HADOOP_CDF, WEBSEARCH_CDF,
                            EmpiricalCdf, ali_storage, hadoop, websearch)
from .generators import FlowSpec, poisson_flows, poisson_flows_iter

__all__ = [
    "EmpiricalCdf",
    "websearch",
    "hadoop",
    "ali_storage",
    "WEBSEARCH_CDF",
    "HADOOP_CDF",
    "ALI_STORAGE_CDF",
    "FlowSpec",
    "poisson_flows",
    "poisson_flows_iter",
    "CoflowSpec",
    "synthesize_coflows",
]
