"""Ray Data batch stages."""
