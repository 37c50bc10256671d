"""Set abstraction: multi-device data, Containers, Loaders (paper IV-B)."""

from .container import Container
from .dataset import DataSet, MultiDeviceData, Span
from .launch import estimate_cost
from .loader import Access, AccessToken, Loader, Pattern, SliceReduceAccessor
from .memset import LinearSpan, MemPartition, MemSet
from .mstream import MultiEvent, MultiStream
from .views import DataView

__all__ = [
    "Access",
    "AccessToken",
    "Container",
    "DataSet",
    "DataView",
    "LinearSpan",
    "Loader",
    "MemPartition",
    "MemSet",
    "MultiDeviceData",
    "MultiEvent",
    "MultiStream",
    "Pattern",
    "SliceReduceAccessor",
    "Span",
    "estimate_cost",
]
