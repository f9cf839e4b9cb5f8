"""Canonical decision-diagram representation of tensors over Boolean indices."""

from .circuit import (Circuit, CircuitNet, Gate, QasmError,
                      allocate_indices, circuit_unitary, gate_matrix, parse_qasm,
                      parse_qasm_file)
from .dense import NATURAL_ORDER, DenseTensor, IndexLabel, IndexOrder, contract_dense
from .diagram import (TERMINAL, Edge, NodeStore, PlanTimeout, StoreError, Tdd, add,
                      contract, evaluate, export_dot, generate, reachable, relabel,
                      size, tensor_product, to_dense)
from .numerics import (DEFAULT_TOLERANCE, ToleranceConfig, canonical,
                       format_weight, is_one, is_zero, weights_equal)
from .planner import (SCHEME1, SCHEME2, SEQUENTIAL, Part, PartitionConfig,
                      Plan, PlanError, execute_plan, partition,
                      plan_circuit, plan_from_parts)

__version__ = "0.1.0"
