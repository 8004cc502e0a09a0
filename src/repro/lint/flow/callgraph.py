"""Project-wide call graph over the module summaries.

Resolution is best-effort and *over-approximate* — exactly what the
safety analyzers want (a missed edge hides a bug; a spurious edge at
worst costs a review):

* ``name`` calls resolve through the module's import map or to a local
  definition (calling a class resolves to its ``__init__``; for a
  dataclass that is the generated one the summarizer models, which
  calls every ``default_factory`` and ``__post_init__``);
* ``self.meth()`` resolves against the caller's class, its project
  bases (inherited methods), and every transitive subclass override
  (dynamic dispatch);
* ``obj.meth()`` uses the receiver hint recorded by the summarizer —
  a local ``obj = ClassName(...)`` binding or a module alias — and
  falls back to *every* project method of that name (class-hierarchy
  analysis) when the receiver is unknown;
* calls with no project target (stdlib, builtins) resolve to nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.flow.project import Project, qualname, split_qualname
from repro.lint.flow.summary import CallSite


def _class_of(caller_key: str) -> Optional[str]:
    if "." in caller_key:
        return caller_key.split(".", 1)[0]
    return None


def _transitive_subclasses(project: Project, module: str,
                           cls: str) -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    seen = {(module, cls)}
    stack = [cls]
    while stack:
        name = stack.pop()
        for sub_mod, sub_cls in project.subclasses_of(name):
            if (sub_mod, sub_cls) in seen:
                continue
            seen.add((sub_mod, sub_cls))
            out.append((sub_mod, sub_cls))
            stack.append(sub_cls)
    return out


def _methods_named(project: Project, module: str, cls: str,
                   method: str) -> List[str]:
    """Dispatch set for ``<cls instance>.<method>()``."""
    targets = [name for name in project.class_methods(module, cls)
               if split_qualname(name)[1].endswith(f".{method}")]
    for sub_mod, sub_cls in _transitive_subclasses(project, module,
                                                   cls):
        candidate = qualname(sub_mod, f"{sub_cls}.{method}")
        if candidate in project.functions and \
                candidate not in targets:
            targets.append(candidate)
    return targets


def _resolve_dotted(project: Project, dotted: str,
                    method: Optional[str] = None) -> List[str]:
    """Resolve an import target, optionally with a trailing call."""
    if method is None:
        module, _, name = dotted.rpartition(".")
        if module in project.modules:
            summary = project.modules[module]
            if name in summary.functions:
                return [qualname(module, name)]
            if name in summary.classes:
                init = qualname(module, f"{name}.__init__")
                return [init] if init in project.functions else []
        return []
    # dotted names a module (``import repro.sim.world as w; w.build()``)
    # or a class (``from x import Mempool; Mempool.ordered``).
    if dotted in project.modules:
        summary = project.modules[dotted]
        if method in summary.functions:
            return [qualname(dotted, method)]
        if method in summary.classes:
            init = qualname(dotted, f"{method}.__init__")
            return [init] if init in project.functions else []
        return []
    module, _, name = dotted.rpartition(".")
    if module in project.modules and \
            name in project.modules[module].classes:
        return _methods_named(project, module, name, method)
    return []


def resolve_site(project: Project, caller: str,
                 site: CallSite) -> List[str]:
    """Project qualnames a call site may dispatch to (possibly empty)."""
    module, caller_key = split_qualname(caller)
    summary = project.modules.get(module)
    if summary is None:
        return []
    if site.kind == "name":
        if site.recv is not None:
            resolved = _resolve_dotted(project, site.recv)
            if resolved:
                return resolved
        if site.func in summary.functions:
            return [qualname(module, site.func)]
        if site.func in summary.classes:
            init = qualname(module, f"{site.func}.__init__")
            return [init] if init in project.functions else []
        return []
    if site.kind in ("self", "super"):
        cls = _class_of(caller_key)
        if cls is None:
            return []
        if site.kind == "super":
            info = summary.classes.get(cls, {})
            targets: List[str] = []
            for base in info.get("bases", []):
                for base_mod in project.classes.get(base, []):
                    targets.extend(_methods_named(
                        project, base_mod, base, site.func))
            return targets
        return _methods_named(project, module, cls, site.func)
    # attr call
    if site.recv is not None:
        if site.recv in project.classes:
            for cls_mod in project.classes[site.recv]:
                targets = _methods_named(project, cls_mod, site.recv,
                                         site.func)
                if targets:
                    return targets
            return []
        if "." in site.recv or site.recv in project.modules:
            return _resolve_dotted(project, site.recv, site.func)
        return []
    # Unknown receiver: class-hierarchy fallback over method names.
    return list(project.methods_by_name.get(site.func, []))


@dataclass
class CallGraph:
    """Resolved edges: caller qualname → [(call index, callee)]."""

    project: Project
    edges: Dict[str, List[Tuple[int, str]]] = field(
        default_factory=dict)

    def callees(self, caller: str) -> List[Tuple[int, str]]:
        return self.edges.get(caller, [])

    def reachable_from(self, roots: List[str],
                       ) -> Dict[str, Optional[str]]:
        """BFS closure; maps each reachable qualname → its discoverer
        (``None`` for roots), so findings can print a witness path."""
        parent: Dict[str, Optional[str]] = {}
        queue: List[str] = []
        for root in roots:
            if root in self.project.functions and root not in parent:
                parent[root] = None
                queue.append(root)
        head = 0
        while head < len(queue):
            current = queue[head]
            head += 1
            for _, callee in self.callees(current):
                if callee not in parent:
                    parent[callee] = current
                    queue.append(callee)
        return parent

    def witness_path(self, parent: Dict[str, Optional[str]],
                     target: str, limit: int = 6) -> str:
        chain = [target]
        node = parent.get(target)
        while node is not None and len(chain) < limit:
            chain.append(node)
            node = parent.get(node)
        return " <- ".join(chain)


def build_call_graph(project: Project) -> CallGraph:
    graph = CallGraph(project=project)
    for caller, fn in project.functions.items():
        resolved: List[Tuple[int, str]] = []
        for index, site in enumerate(fn.calls):
            for callee in resolve_site(project, caller, site):
                resolved.append((index, callee))
        if resolved:
            graph.edges[caller] = resolved
    return graph
