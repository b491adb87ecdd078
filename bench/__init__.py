"""Wall-clock benchmark of the gateway → commit → WebSocket path (see README.md)."""
