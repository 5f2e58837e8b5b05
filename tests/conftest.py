import tracemalloc

from skewflow import make_perturbed_circle, make_perturbed_torus, make_product_torus

# the field geometries of the bitwise reference tests: perturbed tori at two
# seeds (one of them not square), the product torus and a perturbed circle
REFERENCE_GEOMETRIES = (
    make_perturbed_torus(1.0, 0.6, 0.05, 7, 32),
    make_perturbed_torus(1.0, 0.7, 0.3, 3, 24, 16),
    make_product_torus(1.0, 0.6, 16),
    make_perturbed_circle(1.0, 0.2, 3, 64),
)
REFERENCE_IDS = ["torus-7", "torus-3", "product", "circle"]


def traced_peak(fn) -> int:
    """Peak bytes traced while fn() runs; numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
