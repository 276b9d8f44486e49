"""Terminal-airspace traffic modeling: learn deviation mixtures from flight
tracks and procedures, then generate synthetic trajectories and traffic scenes.
"""

__version__ = "0.1.0"
