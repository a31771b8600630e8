"""Functions for the repro SSA IR."""

from __future__ import annotations

import hashlib
import weakref
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .basic_block import BasicBlock
from .instructions import Instruction, PhiInst
from .types import FunctionType, PointerType, Type
from .values import Argument, GlobalValue

#: Version tag of the canonical serialization + digest semantics.  Bump it
#: whenever :func:`repro.ir.printer.canonical_function_text` or the hash
#: construction changes: persisted artifacts keyed by old digests then become
#: unreachable (a cold rebuild) instead of silently wrong.
DIGEST_SCHEMA = "repro-fn-digest-v1"

#: The one function whose name table is live (see :meth:`Function.unique_name`).
#: Held weakly, so a table never keeps a discarded function or module alive.
_name_table_holder: Optional["weakref.ref[Function]"] = None


class Function(GlobalValue):
    """A function: a signature plus an ordered list of basic blocks.

    A function with no blocks is a *declaration* (an external function such as
    the ``start``/``body``/``end`` callees in the paper's motivating example).
    """

    def __init__(self, function_type: FunctionType, name: str,
                 arg_names: Optional[List[str]] = None) -> None:
        super().__init__(PointerType(function_type), name)
        self.function_type = function_type
        self.blocks: List[BasicBlock] = []
        self.args: List[Argument] = []
        self._next_value_id = 0
        self._mutation_epoch = 0
        self._content_digest: Optional[Tuple[int, str]] = None
        self._name_table: Optional[Set[str]] = None
        for index, param_type in enumerate(function_type.param_types):
            arg_name = arg_names[index] if arg_names and index < len(arg_names) else f"arg{index}"
            self.args.append(Argument(param_type, arg_name, parent=self, index=index))

    # ----------------------------------------------------------- signature
    @property
    def return_type(self) -> Type:
        return self.function_type.return_type

    def is_declaration(self) -> bool:
        return not self.blocks

    # --------------------------------------------------------------- epochs
    @property
    def mutation_epoch(self) -> int:
        """Monotonic counter bumped on every structural change to the function.

        Blocks and instructions propagate their mutations here, so an analysis
        cached at epoch ``e`` (see :mod:`repro.analysis.manager`) is valid
        exactly while ``mutation_epoch == e``.
        """
        return self._mutation_epoch

    def notify_mutated(self) -> None:
        """Record a structural change (block list, instructions, operands)."""
        self._mutation_epoch += 1

    def content_digest(self) -> str:
        """A stable, process-independent hash of this function's content.

        Hashes the canonical serialization
        (:func:`repro.ir.printer.canonical_function_text`), which excludes
        the function's own name and all local value names, so structurally
        identical functions share a digest across renames, runs and
        processes.  The result is memoized against :attr:`mutation_epoch`
        — mutating the IR invalidates the digest the same way it invalidates
        cached analyses.  This is the content-address under which
        ``repro.persist`` stores per-function artifacts.
        """
        cached = self._content_digest
        epoch = self._mutation_epoch
        if cached is not None and cached[0] == epoch:
            return cached[1]
        # Rendered transiently: digest-only consumers (warm-start lookups
        # over whole modules) must not pin every function's full text.
        from .printer import canonical_function_text  # deferred import
        text = canonical_function_text(self)
        digest = hashlib.blake2b(f"{DIGEST_SCHEMA}\n{text}".encode("utf-8"),
                                 digest_size=20).hexdigest()
        self._content_digest = (epoch, digest)
        return digest

    def prime_content_digest(self, digest: str) -> None:
        """Memoize a known ``content_digest`` for the current mutation epoch.

        The caller asserts the digest is correct — the only sound use is
        seeding a fresh, content-identical copy (``repro.incremental`` clones
        a pristine function whose digest is already memoized) so the copy
        never re-renders its canonical text just to recompute a hash it is
        guaranteed to share.  Any later mutation invalidates the seed through
        the epoch check exactly like a computed digest.
        """
        self._content_digest = (self._mutation_epoch, digest)

    # ------------------------------------------------------------ lifetime
    def drop_all_references(self) -> None:
        """Detach the body from every value that outlives this function.

        In the spirit of LLVM's ``Function::dropAllReferences``: call it
        where a function leaves for good (a rejected trial merge, a scratch
        clone).  Each operand defined outside the function (a callee, a
        global, another function's value) forgets its use here and the slot
        is cleared, so no live value reaches into the body and the collector
        can free it.  Constants and undefs keep no use list and stay.  The
        body must not be used afterwards.
        """
        for block in self.blocks:
            for inst in block.instructions:
                operands = inst._operands
                for index, value in enumerate(operands):
                    if isinstance(value, Instruction):
                        owner = value.parent
                        if owner is not None and owner.parent is self:
                            continue
                    elif isinstance(value, (BasicBlock, Argument)):
                        if value.parent is self:
                            continue
                    elif not isinstance(value, GlobalValue):
                        continue  # None, or a value without a use list
                    value._remove_newest_use(inst, index)
                    operands[index] = None
        self.notify_mutated()

    # ------------------------------------------------------------- blocks
    @property
    def entry_block(self) -> Optional[BasicBlock]:
        return self.blocks[0] if self.blocks else None

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def add_block(self, block_or_name, before: Optional[BasicBlock] = None) -> BasicBlock:
        """Append a block (or create one from a name), optionally before another."""
        if isinstance(block_or_name, BasicBlock):
            block = block_or_name
        else:
            block = BasicBlock(str(block_or_name))
        block.parent = self
        if not block.name:
            block.name = self.unique_name("bb")
        table = self._name_table
        if table is not None:
            table.add(block.name)
            table.update(inst.name for inst in block.instructions if inst.name)
        if before is not None:
            self.blocks.insert(self.blocks.index(before), block)
        else:
            self.blocks.append(block)
        self.notify_mutated()
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None
        self.notify_mutated()

    def move_block_after(self, block: BasicBlock, after: BasicBlock) -> None:
        self.blocks.remove(block)
        self.blocks.insert(self.blocks.index(after) + 1, block)
        self.notify_mutated()

    # -------------------------------------------------------- instructions
    def instructions(self) -> Iterator[Instruction]:
        """Iterate over every instruction in block order."""
        for block in self.blocks:
            yield from block.instructions

    def num_instructions(self) -> int:
        return sum(len(block) for block in self.blocks)

    def phis(self) -> List[PhiInst]:
        return [inst for inst in self.instructions() if isinstance(inst, PhiInst)]

    # ------------------------------------------------------------- naming
    def unique_name(self, prefix: str = "v") -> str:
        """Return a fresh value/block name, unique within this function.

        Candidates ``prefix0``, ``prefix1``, ... are drawn from a per-function
        counter and checked against a name table: a superset of the live
        local names, kept current by :meth:`add_block`,
        :meth:`BasicBlock.append`/``insert`` and renames of attached values.
        A candidate that hits the table may be a stale (removed) name, so the
        first hit rebuilds the table exactly; the answer is therefore the one
        a full rescan of the function would give.  Only one function holds a
        table at a time; a call on another function takes it over.
        """
        table = self._name_table
        exact = table is None
        if exact:
            table = self._take_name_table()
        while True:
            candidate = f"{prefix}{self._next_value_id}"
            if candidate in table and not exact:
                table = self._rebuild_name_table()
                exact = True
                continue
            self._next_value_id += 1
            if candidate not in table:
                return candidate

    def _take_name_table(self) -> Set[str]:
        global _name_table_holder
        previous = _name_table_holder() if _name_table_holder is not None else None
        if previous is not None:
            previous._name_table = None
        _name_table_holder = weakref.ref(self)
        return self._rebuild_name_table()

    def _rebuild_name_table(self) -> Set[str]:
        table = {block.name for block in self.blocks}
        table.update(arg.name for arg in self.args)
        for inst in self.instructions():
            if inst.name:
                table.add(inst.name)
        self._name_table = table
        return table

    def assign_names(self) -> None:
        """Give every unnamed block and value-producing instruction a name."""
        taken = {arg.name for arg in self.args}
        taken.update(block.name for block in self.blocks if block.name)
        counter = 0

        def fresh(prefix: str) -> str:
            nonlocal counter
            while True:
                candidate = f"{prefix}{counter}"
                counter += 1
                if candidate not in taken:
                    taken.add(candidate)
                    return candidate

        for block in self.blocks:
            if not block.name:
                block.name = fresh("bb")
            for inst in block.instructions:
                if inst.produces_value() and not inst.name:
                    inst.name = fresh("t")

    # ----------------------------------------------------------- utilities
    def block_by_name(self, name: str) -> Optional[BasicBlock]:
        for block in self.blocks:
            if block.name == name:
                return block
        return None

    def value_by_name(self, name: str):
        for arg in self.args:
            if arg.name == name:
                return arg
        for inst in self.instructions():
            if inst.name == name:
                return inst
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "declare" if self.is_declaration() else "define"
        return f"<Function {kind} @{self.name} ({len(self.blocks)} blocks)>"
